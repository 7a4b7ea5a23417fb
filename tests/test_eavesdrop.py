"""Interception Monte-Carlo: determinism, analytic rates, detection."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intraport import eavesdrop, tableau
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
    MessageOut,
    alice_encoder,
    builtin_scenario,
    canonical_case,
    relocated_case,
)
from intraport.qsim import (
    Hadamard,
    PureState,
    _apply_gates,
    bloch_rows,
    channel_fidelity,
    make_state,
    random_qubit,
)


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


def test_reencode_refreshes_the_residue_with_h_exactly_where_it_differs():
    """Eve's re-encode holds one H, on the auxiliary channel before the
    encoder, exactly for the registered cases whose residue is not the
    auxiliary value: those of figures 2, 3 and 7 and their relocations."""
    with_h = set()
    for n in range(3, 7):
        encoder = alice_encoder(n)
        for aux in range(1, n + 1):
            for value in AuxValue:
                case = relocated_case(n, aux, value)
                word = eavesdrop._reencode_gates(case)
                assert word[len(word) - len(encoder):] == encoder
                refresh = [g for g in word[:-len(encoder)] if isinstance(g, Hadamard)]
                if refresh:
                    assert refresh == [Hadamard(aux)]
                    assert word[-len(encoder) - 1] == Hadamard(aux)
                    with_h.add(canonical_case(n, value).figure_id)
                residue = case.expected_layout.residue
                differs = abs(np.vdot(value.qubit.as_array(), residue.as_array())) ** 2 < 0.99
                assert bool(refresh) == differs, case.case_id
    assert with_h == {2, 3, 7}


def test_trials_reuse_compiled_cases():
    """Once its group codes are filled, a trial builds no case, runs no gate
    and conjugates no row: its pulled-back strings are only gathered."""
    eavesdrop._checks.cache_clear()
    strategy = EveStrategy.uniform_guess(seed=4)
    first = run_experiment(4, 60, strategy, base_seed=15)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a case, ran a gate or conjugated a row")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("conjugate", "apply_word", "pull_back"):
            mp.setattr(tableau, name, refuse)
        for name in ("_apply_gates", "post_swap_plan", "relocated_case"):
            mp.setattr(eavesdrop, name, refuse)
        assert run_experiment(4, 60, strategy, base_seed=15) == first


def test_a_trial_on_the_fast_path_builds_no_generator():
    """The replay generator is built on a call's first replay: a trial whose
    normals all take the ziggurat's fast path builds none, one that is
    replayed builds one."""
    n = 3
    case = relocated_case(n, CANONICAL_AUX_CHANNEL[n], AuxValue.ZERO)
    seeds = [trial_seed(27, i) for i in range(40)]
    (stream,) = eavesdrop._pcg64_streams([(np.array(seeds, dtype=np.uint64), 4 * (n - 1))])
    fast = eavesdrop._fast_normals(stream.words, *eavesdrop._ziggurat())[1].all(axis=1)
    assert fast.any() and not fast.all()
    built = []

    class Counted(np.random.Generator):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    for seed, on_fast_path in zip(seeds, fast.tolist()):
        expected = run_trial(n, case, None, seed)
        built.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "Generator", Counted)
            assert run_trial(n, case, None, seed) == expected
        assert len(built) == (0 if on_fast_path else 1)


def test_trials_build_no_generator():
    strategy = EveStrategy.uniform_guess(seed=4)
    first = run_experiment(4, eavesdrop.CHUNK + 1, strategy, base_seed=15)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a generator")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", refuse)
        assert run_experiment(4, eavesdrop.CHUNK + 1, strategy, base_seed=15) == first


def _generator_at(state, inc):
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def _stream_at(states, steps):
    """The _Stream of `steps` words from each PCG64 (state, inc), read off a
    generator set to it."""
    words = [_generator_at(state, inc).bit_generator.random_raw(steps) for state, inc in states]
    halves = np.array([[(v >> 64, v & (2**64 - 1)) for v in pair] for pair in states],
                      dtype=np.uint64)
    return eavesdrop._Stream(np.array(words, dtype=np.uint64).reshape(len(states), steps),
                             halves[:, :, 0], halves[:, :, 1])


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=eavesdrop.CHUNK + 8),
       strategy_seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from(sorted(CANONICAL_AUX_CHANNEL)))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1], strategy_seed=0, n=3)
@example(seeds=[2**64 - 1, 0], strategy_seed=2**64 - 1, n=6)
@example(seeds=list(range(eavesdrop.CHUNK + 1)), strategy_seed=5, n=6)
def test_chunk_draws_are_those_of_default_rng(seeds, strategy_seed, n):
    """The derived streams, and every draw made from them, the generator
    states replayed with one reused generator included, equal those of a
    fresh default_rng per seed."""
    chunk = np.array(seeds, dtype=np.uint64)
    guess_seeds = splitmix64(chunk ^ strategy_seed)
    stream, guess_stream = eavesdrop._pcg64_streams([(chunk, 4 * n - 3), (guess_seeds, 1)])
    replay = eavesdrop._Replay()
    for (j, rng), seed in zip(replay(stream, np.arange(len(seeds))), seeds):
        own = np.random.default_rng(seed)
        assert rng.bit_generator.state == own.bit_generator.state
        assert stream.words[j].tolist() == own.bit_generator.random_raw(4 * n - 3).tolist()
    normals, uniforms = eavesdrop._draw(replay, stream, n - 1, DetectionMode.SAMPLED)
    values = np.full(len(seeds), eavesdrop._AUX_CYCLE.index(AuxValue.ZERO))
    guesses = eavesdrop._guesses(replay, EveStrategy.uniform_guess(strategy_seed), n,
                                 guess_stream, values)
    for j, seed in enumerate(seeds):
        own = np.random.default_rng(seed)
        assert normals[j].tobytes() == own.normal(size=4 * (n - 1)).tobytes()
        assert uniforms[j] == own.random()
        guess_rng = np.random.default_rng(splitmix64(seed ^ strategy_seed))
        assert (eavesdrop._guessed(int(guesses[j]))
                == (int(guess_rng.integers(1, n + 1)), AuxValue.ZERO))


@pytest.mark.slow
def test_draws_are_those_of_default_rng_over_a_million_seeds():
    """Every normal and sampled uniform of 2^20 random seeds, chunk by
    chunk, at each message count in turn: about 1 in 5 of them replayed."""
    seeds = np.random.default_rng(2024).integers(0, 2**64, size=2**20, dtype=np.uint64)
    replay = eavesdrop._Replay()
    for start in range(0, len(seeds), eavesdrop.CHUNK):
        chunk = seeds[start:start + eavesdrop.CHUNK]
        m = 2 + start // eavesdrop.CHUNK % 4
        (stream,) = eavesdrop._pcg64_streams([(chunk, 4 * m + 1)])
        normals, uniforms = eavesdrop._draw(replay, stream, m, DetectionMode.SAMPLED)
        for j, seed in enumerate(chunk.tolist()):
            own = np.random.default_rng(seed)
            assert normals[j].tobytes() == own.normal(size=4 * m).tobytes()
            assert uniforms[j] == own.random()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_uniform_guess_asks_the_generator_when_lemire_may_reject(n):
    """States whose next PCG64 output is 0 (its step lands on equal 64-bit
    halves), so Lemire's product has low word 0 < n: where 2^32 mod n is not
    0 (n = 3, 5, 6) numpy rejects that draw and draws again, and the guess
    must still be the generator's."""
    inverse = pow(eavesdrop._PCG_MULT, -1, 1 << 128)
    states = []
    for half, inc in [(0, 1), (1, 3), (0x0123456789ABCDEF, 2**127 + 1),
                      (2**64 - 1, 2**128 - 1), (2**63, 0xDA3E39CB94B95BDB)]:
        state = ((half << 64 | half) - inc) * inverse % (1 << 128)
        assert _generator_at(state, inc).bit_generator.random_raw() == 0
        states.append((state, inc))
    expected = [int(_generator_at(state, inc).integers(1, n + 1)) for state, inc in states]
    values = np.full(len(states), eavesdrop._AUX_CYCLE.index(AuxValue.ONE))
    guesses = eavesdrop._guesses(eavesdrop._Replay(),
                                 EveStrategy.uniform_guess(), n, _stream_at(states, 1), values)
    assert [eavesdrop._guessed(int(code)) for code in guesses] == [
        (channel, AuxValue.ONE) for channel in expected]


def test_draw_returns_normal_s_plus_zero():
    """A state whose next output (0x101: table 1, sign bit set, magnitude 0)
    makes the ziggurat return -0.0.  normal() returns 0.0 + 1.0 * x, so
    +0.0, and _draw must too, on the generator (table 1 is always replayed)
    and on the fast path (0x102: table 2)."""
    inverse = pow(eavesdrop._PCG_MULT, -1, 1 << 128)
    mask64 = (1 << 64) - 1
    high, inc, rot = 0x9E3779B97F4A7C15, 0xDA3E39CB94B95BDB, 0x9E3779B97F4A7C15 >> 58
    for word in (0x101, 0x102):
        low = high ^ ((word << rot | word >> (64 - rot)) & mask64)
        state = ((high << 64 | low) - inc) * inverse % (1 << 128)
        assert np.signbit(_generator_at(state, inc).standard_normal())
        normals, _ = eavesdrop._draw(eavesdrop._Replay(),
                                     _stream_at([(state, inc)], 8), 2, DetectionMode.OMNISCIENT)
        assert normals[0].tobytes() == _generator_at(state, inc).normal(size=8).tobytes()
        assert not np.signbit(normals[0, 0])


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_draws_at_every_layer_bound_are_standard_normal_s(mode):
    """For every layer idx, a state whose next word has rabs = bound - 1
    (the fast path) and one with rabs = bound (replayed on the generator)
    draw exactly what the generator draws, signs alternating."""
    w, bound = eavesdrop._ziggurat()
    words, fast = [], []
    for idx, b in enumerate(bound[:256].tolist()):
        for rabs in (b - 1, b):
            if 0 <= rabs < 2**52:
                words.append(rabs << 9 | (rabs & 1) << 8 | idx)
                fast.append(rabs < b)
    assert fast.count(False) == 256 and fast.count(True) == 255  # idx 1's bound is 0
    states = [(eavesdrop._word_state(word), eavesdrop._PROBE_INC) for word in words]
    stream = _stream_at(states, 9)
    assert stream.words[:, 0].tolist() == words
    assert eavesdrop._fast_normals(stream.words[:, :1], w, bound)[1][:, 0].tolist() == fast
    normals, uniforms = eavesdrop._draw(eavesdrop._Replay(), stream, 2, mode)
    for j, (state, inc) in enumerate(states):
        own = _generator_at(state, inc)
        assert normals[j].tobytes() == own.normal(size=8).tobytes()
        assert uniforms[j] == (own.random() if mode is DetectionMode.SAMPLED else 0.0)


def _numpy_ziggurat():
    """(w, bound) of every layer idx, read off the installed numpy's
    standard_normal.  A draw reads one word exactly when rabs < bound, so a
    binary search for the least rabs that reads more finds the bound.  At
    rabs = 1 a draw that reads at most two words returns 1 * w: it took the
    fast path or accepted the layer's edge at once (the tail reads three)."""
    rng = np.random.Generator(np.random.PCG64(0))
    ws, bounds = [], []
    for idx in range(256):
        w, read = eavesdrop._probe(rng, 1 << 9 | idx)
        assert read <= 2, idx
        low, high = 0, 1 << 52
        while low < high:
            mid = (low + high) // 2
            if eavesdrop._probe(rng, mid << 9 | idx)[1] == 1:
                low = mid + 1
            else:
                high = mid
        ws.append(w)
        bounds.append(low)
    return ws, bounds


def test_ziggurat_table_is_the_installed_numpy_s():
    """The derived table against numpy's, each bound found by binary search:
    the same w bit for bit, and no bound above numpy's (one below only
    replays more trials).  A numpy with other tables fails here, where at
    run time the first-use check would turn the fast path off."""
    w, bound = eavesdrop._ziggurat()
    numpy_w, numpy_bound = _numpy_ziggurat()
    assert w.tobytes() == np.array(numpy_w + [-x for x in numpy_w]).tobytes()
    below = np.array(numpy_bound + numpy_bound, dtype=np.int64) - bound.astype(np.int64)
    assert 0 <= below.min() and below.max() <= 3
    assert np.count_nonzero(bound) == 2 * 255  # the fast path is on


@pytest.mark.parametrize("layer, change", [(0, "w"), (7, "bound"), (255, "bound"), (200, "w")])
def test_first_use_check_refuses_a_table_numpy_does_not_use(layer, change):
    w, bound = (table.copy() for table in eavesdrop._ziggurat())
    assert eavesdrop._ziggurat_agrees(w, bound)
    if change == "w":
        w[[layer, layer + 256]] = np.nextafter(w[[layer, layer + 256]], 1.0)
    else:
        bound[[layer, layer + 256]] += np.uint64(1)
    assert not eavesdrop._ziggurat_agrees(w, bound)


def test_experiment_without_the_fast_path_is_the_same():
    """With the first-use check failing, every trial is drawn by the
    generator, and every experiment comes out the same."""
    cases = [(n, strategy, mode) for n in (3, 6) for mode in DetectionMode
             for strategy in (None, EveStrategy.uniform_guess(seed=8),
                              EveStrategy.fixed_guess(1, AuxValue.PLUS))]
    fast = [run_experiment(n, 300, strategy, 19, mode) for n, strategy, mode in cases]
    eavesdrop._ziggurat.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eavesdrop, "_ziggurat_agrees", lambda w, bound: False)
            assert not eavesdrop._ziggurat()[1].any()
            assert [run_experiment(n, 300, strategy, 19, mode)
                    for n, strategy, mode in cases] == fast
    finally:
        eavesdrop._ziggurat.cache_clear()


def test_uniform_guesses_ask_no_generator_for_integers():
    class NoIntegers(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("a uniform guess drew from a generator")

    strategy = EveStrategy.uniform_guess(seed=6)
    first = run_experiment(5, eavesdrop.CHUNK + 1, strategy, base_seed=16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator", NoIntegers)
        assert run_experiment(5, eavesdrop.CHUNK + 1, strategy, base_seed=16) == first


@pytest.mark.parametrize("strategy, mode", [
    (EveStrategy(mode="fixed"), DetectionMode.OMNISCIENT),
    (EveStrategy(mode="fixed", fixed_channel=2), DetectionMode.OMNISCIENT),
    (EveStrategy(mode="fixed", fixed_value=AuxValue.ZERO), DetectionMode.OMNISCIENT),
    (EveStrategy.fixed_guess(2, "zero"), DetectionMode.OMNISCIENT),
    (EveStrategy.fixed_guess(0, AuxValue.ZERO), DetectionMode.SAMPLED),
    (EveStrategy.fixed_guess(4, AuxValue.ZERO), DetectionMode.SAMPLED),
    (EveStrategy.fixed_guess(2.0, AuxValue.ZERO), DetectionMode.OMNISCIENT),
    (EveStrategy.uniform_guess(seed=1.5), DetectionMode.OMNISCIENT),
    (EveStrategy(mode="bogus"), DetectionMode.OMNISCIENT),
    ("uniform", DetectionMode.OMNISCIENT),
    (None, "sampled"),
    (EveStrategy.uniform_guess(), "omniscient"),
    (EveStrategy.fixed_guess(2, AuxValue.ZERO), None),
    (EveStrategy.fixed_guess(True, AuxValue.ZERO), DetectionMode.OMNISCIENT),
    (EveStrategy.uniform_guess(seed=True), DetectionMode.OMNISCIENT),
])
def test_malformed_strategy_or_mode_is_refused_before_any_trial(strategy, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    case = relocated_case(3, CANONICAL_AUX_CHANNEL[3], AuxValue.ZERO)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eavesdrop, "_draw", refuse)
        with pytest.raises(InvalidInput):
            run_experiment(3, 10, strategy, 1, mode)
        with pytest.raises(InvalidInput):
            run_trial(3, case, strategy, trial_seed(1, 0), mode)


@pytest.mark.parametrize("call", [
    lambda case: run_experiment(3, 2.5, None, 1),
    lambda case: run_experiment(3, "5", None, 1),
    lambda case: run_experiment(3, 5, None, 1.5),
    lambda case: run_experiment(3, 5, None, None),
    lambda case: run_trial(3, case, None, 1.5),
    lambda case: run_trial(3, case, None, "1"),
    lambda case: run_experiment(3, True, None, 1),
    lambda case: run_experiment(3, 5, None, False),
    lambda case: run_experiment(3, True, EveStrategy.uniform_guess(seed=True), False),
    lambda case: run_trial(3, case, None, True),
    lambda case: run_experiment(3.0, 5, None, 1),
])
def test_non_integer_trials_or_seed_is_refused_before_any_trial(call):
    """Floats, strings, None and bools (which Python counts as integers)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    case = relocated_case(3, CANONICAL_AUX_CHANNEL[3], AuxValue.ZERO)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eavesdrop, "_draw", refuse)
        with pytest.raises(InvalidInput):
            call(case)


def test_numpy_integer_trials_and_seeds_are_accepted():
    strategy = EveStrategy.uniform_guess(2)
    assert (run_experiment(4, np.int64(50), strategy, np.int64(7))
            == run_experiment(4, 50, strategy, 7))
    assert (run_experiment(4, np.uint8(50), strategy, np.uint64(2**64 - 1))
            == run_experiment(4, 50, strategy, 2**64 - 1))
    case = relocated_case(4, CANONICAL_AUX_CHANNEL[4], AuxValue.ONE)
    assert run_trial(4, case, strategy, np.uint64(5)) == run_trial(4, case, strategy, 5)
    assert run_trial(np.int64(4), case, strategy, 5) == run_trial(4, case, strategy, 5)
    # a numpy strategy seed and channel count: an OverflowError, and a
    # channel_count that is not JSON, before they were read as ints
    assert (run_experiment(3, 10, EveStrategy.uniform_guess(np.int64(7)), 1)
            == run_experiment(3, 10, EveStrategy.uniform_guess(7), 1))
    stats = run_experiment(np.int64(3), 10, None, 1)
    assert type(stats.channel_count) is int and stats == run_experiment(3, 10, None, 1)


def test_malformed_aux_value_is_refused():
    with pytest.raises(InvalidInput):
        run_experiment(3, 10, None, 1, aux_value="zero")


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


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_pinned_value_other_than_the_guessed_one_is_the_sum_of_its_trials(mode):
    """aux_value pins the true value; a fixed guess of the true channel with
    another value forms groups whose guessed case is not the true one."""
    trials = 20
    for n in sorted(CANONICAL_AUX_CHANNEL):
        aux = CANONICAL_AUX_CHANNEL[n]
        for true_value in AuxValue:
            case = relocated_case(n, aux, true_value)
            for guessed in AuxValue:
                if guessed is true_value:
                    continue
                strategy = EveStrategy.fixed_guess(aux, guessed)
                stats = run_experiment(n, trials, strategy, 31, mode, aux_value=true_value)
                outcomes = [run_trial(n, case, strategy, trial_seed(31, i), mode)
                            for i in range(trials)]
                assert stats.eve_success_rate == sum(o.eve_success for o in outcomes) / trials
                assert stats.detection_rate == sum(o.bob_detects for o in outcomes) / trials
                assert stats.analytic_success_rate == 0.0


def test_fidelity_contractions_do_not_grow_with_the_group_count():
    """Nothing is done per group: a uniform chunk at n=6 (18 groups) makes no
    more fidelity evaluations than a chunk of one group of the correct fixed
    guess, which also checks Eve's recovery."""
    n = 6
    fill, fidelities = eavesdrop._Checks.fill, eavesdrop._fidelities

    def chunk(strategy):
        codes, calls = set(), []

        def recording_fill(checks, chunk_codes):
            codes.update(chunk_codes.tolist())
            return fill(checks, chunk_codes)

        def counted_fidelities(*args):
            calls.append(1)
            return fidelities(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eavesdrop._Checks, "fill", recording_fill)
            mp.setattr(eavesdrop, "_fidelities", counted_fidelities)
            run_experiment(n, eavesdrop.CHUNK, strategy, base_seed=17)
        return len(codes), len(calls)

    uniform_groups, uniform_calls = chunk(EveStrategy.uniform_guess(seed=1))
    fixed_groups, fixed_calls = chunk(EveStrategy.fixed_guess(CANONICAL_AUX_CHANNEL[n],
                                                              AuxValue.ZERO))
    assert (uniform_groups, fixed_groups) == (3 * n, 1)
    assert uniform_calls <= fixed_calls


@pytest.mark.parametrize("mode", list(DetectionMode))
def test_a_trial_s_fidelities_do_not_depend_on_its_chunk(mode):
    """Every fidelity a chunk computes, for Eve's recovery and for the
    receiver's check, equals bit for bit the one its trial computes alone."""
    n, fidelities = 5, eavesdrop._fidelities
    strategy = EveStrategy.uniform_guess(seed=2)
    seeds = np.array([trial_seed(23, i) for i in range(64)], dtype=np.uint64)
    value_codes = (splitmix64(seeds) % 3).astype(np.intp)

    def run(rows):
        calls = []

        def recording(*args):
            calls.append(fidelities(*args))
            return calls[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eavesdrop, "_fidelities", recording)
            eavesdrop._run_trials(eavesdrop._Replay(), n, CANONICAL_AUX_CHANNEL[n],
                                  value_codes[rows], seeds[rows], strategy, mode)
        return calls[:-1], calls[-1]  # Eve's recovery, if checked, then the receiver's

    (recovery,), received = run(slice(None))
    alone = [run(slice(t, t + 1)) for t in range(len(seeds))]
    assert 0 < len(recovery) < len(seeds)
    assert received.tobytes() == b"".join(r.tobytes() for _, r in alone)
    assert recovery.tobytes() == b"".join(e.tobytes() for eve, _ in alone for e in eve)


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from(sorted(CANONICAL_AUX_CHANNEL)), seed=st.integers(0, 2**32))
def test_pulled_back_fidelities_equal_dense_channel_fidelities(n, seed):
    """For every group code, each fidelity the pulled-back strings give, on
    the receiver's composite and on Eve's own view, equals
    qsim.channel_fidelity on the statevector run gate by gate, within 1e-12.
    The auxiliary and residue qubits are random too: the strings hold for
    any product input, and on a known auxiliary every string whose sign is
    -1 has a factor 0, so only random ones test the signs."""
    aux, m = CANONICAL_AUX_CHANNEL[n], n - 1
    rng = np.random.default_rng(seed)
    qubits = [random_qubit(rng) for _ in range(m + 2)]  # messages, auxiliary, residue
    bloch = bloch_rows(np.array([[q.as_array() for q in qubits]]))
    checks, codes = eavesdrop._checks(n, aux), np.arange(3 * (3 * n + 1))
    checks.fill(codes)
    for code in codes.tolist():
        value_code, guess_code = divmod(code, 3 * n + 1)
        true = relocated_case(n, aux, eavesdrop._AUX_CYCLE[value_code])
        state = make_state([qubits[col] for col in true.input_layout.columns]).amplitudes
        state = _apply_gates(state, n, alice_encoder(n))
        if guess_code:
            eve = relocated_case(n, *eavesdrop._guessed(guess_code))
            state = _apply_gates(state, n, eve.bob_program)
            assert checks.recoverable[code] == (eve.aux_channel == aux)
            if checks.recoverable[code]:
                pulled = eavesdrop._fidelities(bloch, checks.first[code][None])[0]
                sources = [true.message_channels.index(ch) for ch in eve.message_channels]
                dense = [channel_fidelity(PureState(n, state), ch, qubits[j])
                         for ch, j in zip(eve.expected_layout.message_channels, sources)]
                assert np.abs(pulled - dense).max() <= 1e-12
            state = _apply_gates(state, n, eavesdrop._reencode_gates(eve))
        state = _apply_gates(state, n, true.bob_program)
        pulled = eavesdrop._fidelities(bloch, checks.received[code][None])[0]
        dense = [channel_fidelity(PureState(n, state), ch, qubits[col + (col == m)])
                 for ch, col in enumerate(true.expected_layout.columns, 1)]
        assert np.abs(pulled - dense).max() <= 1e-12


def _oracle_trial(n, aux_channel, value, strategy, seed, mode):
    """(Eve succeeds, the receiver detects) for one trial, rebuilt from the
    public pieces: the trial's default_rng draws, the registered cases' gate
    words run gate by gate on a dense state, and qsim.channel_fidelity."""
    rng = np.random.default_rng(seed)
    messages = [random_qubit(rng) for _ in range(n - 1)]
    uniform = rng.random() if mode is DetectionMode.SAMPLED else None
    true = relocated_case(n, aux_channel, value)

    def qubit(out):
        return messages[out.index] if isinstance(out, MessageOut) else out.state

    sent = {ch: qubit(out) for ch, out in true.input_layout.items()}
    state = make_state([sent[ch] for ch in range(1, n + 1)]).amplitudes
    state = _apply_gates(state, n, alice_encoder(n))

    def fidelity(ch, qubit):
        return channel_fidelity(PureState(n, state), ch, qubit)

    success = False
    if strategy is not None:
        if strategy.mode == "fixed":
            guess = relocated_case(n, strategy.fixed_channel, strategy.fixed_value)
        else:
            own = np.random.default_rng(splitmix64(seed ^ strategy.seed))
            guess = relocated_case(n, int(own.integers(1, n + 1)), value)
        state = _apply_gates(state, n, guess.bob_program)
        # She recovers the messages when each channel where her case puts
        # her k-th message holds what the sender put on her k-th message
        # channel, and that is a message.
        success = all(
            isinstance(true.input_layout[guess.message_channels[out.index]], MessageOut)
            and fidelity(ch, sent[guess.message_channels[out.index]]) >= 1 - 1e-9
            for ch, out in guess.expected_layout.items() if isinstance(out, MessageOut))
        state = _apply_gates(state, n, eavesdrop._reencode_gates(guess))
    state = _apply_gates(state, n, true.bob_program)
    if mode is DetectionMode.OMNISCIENT:
        detects = any(fidelity(ch, qubit(out)) < 1 - 1e-9
                      for ch, out in true.expected_layout.items())
    else:
        layout = true.expected_layout
        detects = uniform < 1.0 - fidelity(layout.residue_channel, layout.residue)
    return success, detects


def _check_against_oracle(n, strategy, mode, seeds):
    aux = CANONICAL_AUX_CHANNEL[n]
    seeds = np.array(seeds, dtype=np.uint64)
    value_codes = (splitmix64(seeds) % 3).astype(np.intp)
    success, detects, _ = eavesdrop._run_trials(
        eavesdrop._Replay(), n, aux, value_codes, seeds, strategy, mode)
    oracle = [_oracle_trial(n, aux, eavesdrop._AUX_CYCLE[code], strategy, seed, mode)
              for code, seed in zip(value_codes.tolist(), seeds.tolist())]
    assert list(zip(success.tolist(), detects.tolist())) == oracle


def _oracle_strategies(n):
    yield None
    yield EveStrategy.uniform_guess(seed=9)
    for ch in range(1, n + 1):
        for value in AuxValue:
            yield EveStrategy.fixed_guess(ch, value)


@pytest.mark.parametrize("mode", list(DetectionMode))
@pytest.mark.parametrize("n", sorted(CANONICAL_AUX_CHANNEL))
def test_chunk_pipeline_matches_a_dense_oracle(n, mode):
    """Every trial of a chunk, against a rebuild that uses neither the folded
    matrices nor the grouping.  The uniform chunk (150 trials) splits into
    up to 3n groups and, at n = 5 and 6, into several blocks."""
    for strategy in _oracle_strategies(n):
        count = 150 if strategy is not None and strategy.mode == "uniform" else 4
        _check_against_oracle(n, strategy, mode, [trial_seed(41 + n, i) for i in range(count)])


@pytest.mark.slow
@pytest.mark.parametrize("mode", list(DetectionMode))
@pytest.mark.parametrize("n", sorted(CANONICAL_AUX_CHANNEL))
def test_chunk_pipeline_matches_a_dense_oracle_over_many_seeds(n, mode):
    for base in range(3):
        for strategy in _oracle_strategies(n):
            _check_against_oracle(n, strategy, mode,
                                  [trial_seed(1000 + base, i) for i in range(eavesdrop.CHUNK)])


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
