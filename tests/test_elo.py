from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchess.elo import (
    DEFAULT_WHITE_ADVANTAGE,
    MatchOutcome,
    build_skill_map,
    default_skill_rating,
    estimate_elo,
    expected_score,
    fisher_information,
    outcomes_from_records,
    read_outcomes_csv,
    score_diff,
)

from conftest import make_record


def simulate_outcomes(rng, true_rating, anchors, games_per_anchor):
    """Monte-Carlo generator: Bernoulli wins at the true rating's expectation."""
    return [
        MatchOutcome(a, 1.0 if rng.random() < expected_score(true_rating, a) else 0.0)
        for a in anchors
        for _ in range(games_per_anchor)
    ]


def test_expected_score_equal_ratings():
    assert expected_score(1500, 1500) == 0.5


def test_expected_score_four_hundred_gap():
    assert expected_score(1400, 1000) == pytest.approx(10 / 11, abs=1e-12)


@settings(max_examples=100)
@given(
    st.floats(min_value=-3000, max_value=3000),
    st.floats(min_value=-3000, max_value=3000),
)
def test_expected_score_complement_identity(r, s):
    assert expected_score(r, s) + expected_score(s, r) == pytest.approx(1.0, abs=1e-12)


def test_score_diff_strictly_decreasing():
    outcomes = [MatchOutcome(500, 1.0), MatchOutcome(300, 0.0), MatchOutcome(700, 0.5)]
    values = [score_diff(r, outcomes) for r in range(-100, 1100, 50)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_estimate_symmetric_fixture():
    estimate = estimate_elo([MatchOutcome(400, 1.0), MatchOutcome(400, 0.0)])
    assert estimate.rating == pytest.approx(435.0, abs=1e-3)
    assert estimate.boundary == "none"
    assert estimate.white_advantage == 35.0
    # Fisher information check: two games at E = 1/2.
    scale = math.log(10) / 400
    expected_se = 1 / math.sqrt(2 * 0.25 * scale * scale)
    assert estimate.standard_error == pytest.approx(expected_se, rel=1e-6)
    assert estimate.ci_half_width == pytest.approx(1.96 * expected_se, rel=1e-9)


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_estimate_all_draws_pins_opponent_rating(k):
    estimate = estimate_elo([MatchOutcome(500, 0.5)] * k)
    assert estimate.rating == pytest.approx(535.0, abs=1e-3)
    single = estimate_elo([MatchOutcome(500, 0.5)])
    assert estimate.standard_error == pytest.approx(
        single.standard_error / math.sqrt(k), rel=1e-6
    )


def test_estimate_translation_equivariance():
    rng = random.Random(5)
    outcomes = simulate_outcomes(rng, 600, [250, 375, 500, 625, 750], 10)
    base = estimate_elo(outcomes)
    shifted = estimate_elo(
        [MatchOutcome(o.opponent_rating + 137, o.score) for o in outcomes]
    )
    assert shifted.rating == pytest.approx(base.rating + 137, abs=2e-3)


def test_estimate_all_wins_clamps_high():
    outcomes = [MatchOutcome(250, 1.0)] * 5 + [MatchOutcome(500, 1.0)] * 5
    estimate = estimate_elo(outcomes)
    assert estimate.boundary == "clamped_high"
    assert estimate.rating == 500 + 400 + 35


def test_estimate_all_losses_clamps_low():
    estimate = estimate_elo([MatchOutcome(250, 0.0)] * 10)
    assert estimate.boundary == "clamped_low"
    assert estimate.rating == 250 - 400 + 35


def test_estimate_requires_outcomes():
    with pytest.raises(ValueError):
        estimate_elo([])


def test_estimate_white_advantage_configurable():
    outcomes = [MatchOutcome(400, 1.0), MatchOutcome(400, 0.0)]
    assert estimate_elo(outcomes, white_advantage=0.0).rating == pytest.approx(400, abs=1e-3)


def test_estimate_offset_follows_the_subject_colour():
    # An even score as white means weaker than the anchor, as black stronger.
    as_white = estimate_elo([MatchOutcome(400, 1.0, "w"), MatchOutcome(400, 0.0, "w")])
    as_black = estimate_elo([MatchOutcome(400, 1.0, "b"), MatchOutcome(400, 0.0, "b")])
    assert as_white.rating == pytest.approx(400 - 35, abs=1e-3)
    assert as_black.rating == pytest.approx(400 + 35, abs=1e-3)
    assert as_white.standard_error == pytest.approx(as_black.standard_error, rel=1e-9)
    records = [engine_record("checkmate_llm", 3, subject_color="w"),
               engine_record("checkmate_opponent", 3, subject_color="w")]
    outcomes = outcomes_from_records(records)
    assert [o.subject_color for o in outcomes] == ["w", "w"]
    assert estimate_elo(outcomes).rating == pytest.approx(500 - 35, abs=1e-3)


def test_outcome_validation():
    with pytest.raises(ValueError):
        MatchOutcome(400, 0.7)
    with pytest.raises(ValueError):
        MatchOutcome(float("inf"), 1.0)
    with pytest.raises(ValueError):
        MatchOutcome(400, 1.0, "white")


def test_monte_carlo_estimates_center_on_truth():
    # 200 repetitions of 150 games at a true rating of 600: the estimator is
    # unbiased with a sampling sd near the Fisher prediction (~32 Elo).
    rng = random.Random(99)
    anchors = [250.0, 375.0, 500.0, 625.0, 750.0]
    roots = []
    for _ in range(200):
        estimate = estimate_elo(simulate_outcomes(rng, 600.0, anchors, 30))
        roots.append(estimate.rating - estimate.white_advantage)
    assert statistics.mean(roots) == pytest.approx(600.0, abs=10.0)
    assert 25.0 < statistics.pstdev(roots) < 40.0


def test_confidence_interval_covers_truth():
    # Quick version of the coverage property (the acceptance suite runs the
    # full 2000 trials): about 95 of 100 intervals contain the truth.
    rng = random.Random(7)
    anchors = [250.0, 375.0, 500.0, 625.0, 750.0]
    covered = 0
    for _ in range(200):
        estimate = estimate_elo(simulate_outcomes(rng, 600.0, anchors, 30))
        root = estimate.rating - estimate.white_advantage
        if abs(root - 600.0) <= estimate.ci_half_width:
            covered += 1
    assert 0.90 <= covered / 200 <= 0.99


def test_default_skill_anchor_table():
    assert default_skill_rating(1) == 250.0
    assert default_skill_rating(2) == 375.0
    assert default_skill_rating(10) == 1375.0
    mapping = build_skill_map(range(1, 6))
    assert mapping == {1: 250.0, 2: 375.0, 3: 500.0, 4: 625.0, 5: 750.0}


def test_build_skill_map_rejects_non_increasing():
    with pytest.raises(ValueError):
        build_skill_map([1, 2], ratings={2: 100.0})


def engine_record(termination, skill, settings=None, **kwargs):
    return make_record(
        termination,
        opponent={"kind": "engine", "skill": skill, "command": ["engine"], **(settings or {})},
        **kwargs,
    )


def test_outcomes_from_records_mapping():
    records = [
        engine_record("checkmate_llm", 1),
        engine_record("model_error", 2),
        engine_record("max_moves", 1),
        engine_record("checkmate_opponent", 3),
        engine_record("too_many_wrong_actions", 1),
    ]
    outcomes = outcomes_from_records(records)
    assert [(o.opponent_rating, o.score) for o in outcomes] == [
        (250.0, 1.0),
        (375.0, 0.0),
        (250.0, 0.5),
        (500.0, 0.0),
        (250.0, 0.0),
    ]


def test_outcomes_from_records_skips_excluded():
    records = [
        engine_record("checkmate_llm", 1),
        engine_record("model_error", 1, excluded=True),
    ]
    assert len(outcomes_from_records(records)) == 1


def test_outcomes_from_records_requires_engine_skill():
    with pytest.raises(ValueError):
        outcomes_from_records([make_record("checkmate_llm")])  # random opponent


@pytest.mark.parametrize("first, second", [
    ({"movetime_ms": 5, "depth": None}, {"movetime_ms": 1000, "depth": None}),
    ({"movetime_ms": 5, "depth": None}, {"movetime_ms": 5, "depth": None}),
    (None, None),  # entries written before the engine's search settings were logged
], ids=["settings-differ", "settings-agree", "settings-unlogged"])
def test_outcomes_from_records_one_skill_one_engine_entry(first, second):
    records = [
        engine_record("checkmate_llm", 1, first),
        engine_record("checkmate_opponent", 1, second),
        engine_record("max_moves", 2, {"movetime_ms": 9, "depth": None}),  # another anchor
        engine_record("model_error", 1, {"movetime_ms": 7}, excluded=True),  # never scored
    ]
    if first == second:
        assert [o.opponent_rating for o in outcomes_from_records(records)] == [250.0, 250.0, 375.0]
        return
    with pytest.raises(ValueError) as raised:
        outcomes_from_records(records)
    assert str(raised.value) == (
        f"skill 1 was played at two engine settings, {records[0].config['white']} and "
        f"{records[1].config['white']}; rate them apart"
    )


def test_outcomes_from_records_custom_map():
    records = [engine_record("checkmate_llm", 5)]
    outcomes = outcomes_from_records(records, anchors={5: 900.0})
    assert outcomes[0].opponent_rating == 900.0
    with pytest.raises(ValueError):  # skill 5 keeps its default 750, below the skill-1 anchor
        outcomes_from_records(records, anchors={1: 1000.0})


def test_outcomes_csv_round_trip(tmp_path):
    path = tmp_path / "outcomes.csv"
    outcomes = [MatchOutcome(400, 1.0), MatchOutcome(400, 0.0), MatchOutcome(625, 0.5)]
    path.write_text("opponent_rating,score\n400,1\n400,0\n625,0.5\n")
    assert read_outcomes_csv(path) == outcomes


def test_outcomes_csv_headerless(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("250,1\n375,0.5\n")
    assert read_outcomes_csv(path) == [MatchOutcome(250, 1.0), MatchOutcome(375, 0.5)]


def test_outcomes_csv_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("250,1,extra\n")
    with pytest.raises(ValueError):
        read_outcomes_csv(path)


def test_fisher_information_positive():
    outcomes = [MatchOutcome(500, 1.0)] * 3
    assert fisher_information(500, outcomes) > 0
