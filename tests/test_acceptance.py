"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. These tests overlap the per-module suites on purpose; they are
the go/no-go list and stand alone.
"""
from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest

from agentchess import analysis, dialog, rules, runner
from agentchess.analysis import (
    AnalysisEngineConfig,
    evaluate_subject_plies,
    judge,
    summarize_evaluations,
    win_percent,
)
from agentchess.dialog import DialogLimits, ProtocolVariant, build_game_loop_prompt, run_ply
from agentchess.elo import MatchOutcome, estimate_elo, expected_score
from agentchess.reporting import aggregate
from agentchess.players import RandomSpec, ScriptedDialogSpec, ScriptedMoverSpec
from agentchess.runner import GameConfig, play_games

from conftest import FAKE_UCI, FIXTURES, make_record, random_playout


@contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def eq1(cp: float) -> float:
    """Winning-percentage formula evaluated directly, as the oracle."""
    return 50 + 50 * (2 / (1 + math.exp(-0.00368208 * cp)) - 1)


# ---------------------------------------------------------------------------


def test_criterion_1_formula_fidelity():
    with criterion("1", "win percentage formula exact at 0, 1000, and symmetric"):
        assert win_percent(0) == 50.0
        assert abs(win_percent(1000) - eq1(1000)) < 1e-9
        rng = random.Random(1)
        for _ in range(100_000):
            cp = rng.randint(-1_000_000, 1_000_000)
            assert abs(win_percent(-cp) - (100.0 - win_percent(cp))) < 1e-9


def test_criterion_2_judgment_boundaries():
    with criterion("2", "judgment thresholds boundary-inclusive at 30/20/10"):
        cases = [
            (9.999, "none"),
            (10.0, "inaccuracy"),
            (19.999, "inaccuracy"),
            (20.0, "mistake"),
            (29.999, "mistake"),
            (30.0, "blunder"),
        ]
        for delta, expected in cases:
            assert judge(delta, 0.0) == expected, (delta, expected)


def test_criterion_3_rules_engine(playout_positions):
    with criterion("3", "perft 1-4 matches reference engines; FEN round-trips"):
        board = rules.Board.initial()
        # Reference node counts as published for established engines.
        for depth, nodes in enumerate([20, 400, 8902, 197281], start=1):
            assert rules.perft(board, depth) == nodes, f"perft({depth})"
        assert len(playout_positions) == 1000
        for position in playout_positions:
            assert rules.parse_fen(rules.render_fen(position)) == position


def test_criterion_4_protocol_caps():
    with criterion("4", "dialog caps: 3 attempts, 10 turns, byte-exact prompts"):
        limits = DialogLimits()
        variant = ProtocolVariant()
        board = rules.Board.initial()

        # Byte-level prompt fixtures.
        black_board = rules.apply_uci(board, "e2e4")
        assert build_game_loop_prompt("b", variant, black_board) == (
            FIXTURES / "game_loop_prompt_black.txt"
        ).read_text()
        assert build_game_loop_prompt("w", variant, board) == (
            FIXTURES / "game_loop_prompt_white.txt"
        ).read_text()
        assert dialog.invalid_action_reflection(variant) == (
            FIXTURES / "invalid_action_reflection.txt"
        ).read_text()

        # (a) Garbage replies: exactly 3 attempts, then too_many_wrong_actions.
        garbage = run_ply(board, lambda messages: "banana", limits, variant)
        assert garbage.outcome == "too_many_wrong_actions"
        assert garbage.failed_attempts == 3

        # (b) Query looping: exactly 10 turns, then max_turns.
        looper = run_ply(board, lambda messages: "get_current_board", limits, variant)
        assert looper.outcome == "max_turns"
        assert looper.turns_used == 10

        # (c) A compliant three-turn script completes the ply.
        script = iter(["get_current_board", "get_legal_moves", "make_move e2e4"])
        compliant = run_ply(board, lambda messages: next(script), limits, variant)
        assert compliant.outcome == "move_made"
        assert compliant.turns_used == 3
        assert compliant.move == "e2e4"


def test_criterion_5a_elo_symmetric_fixture():
    with criterion("5a", "one win plus one loss at 400 estimates 435.0"):
        estimate = estimate_elo([MatchOutcome(400, 1.0), MatchOutcome(400, 0.0)])
        assert abs(estimate.rating - 435.0) < 1e-3
        assert estimate.boundary == "none"


def _simulate(rng, true_rating, anchors, per_anchor):
    return [
        MatchOutcome(a, 1.0 if rng.random() < expected_score(true_rating, a) else 0.0)
        for a in anchors
        for _ in range(per_anchor)
    ]


def _fisher_sigma(true_rating, anchors, per_anchor):
    """Fisher sd of the ML rating, from the Elo logistic written out as the oracle."""
    scale = math.log(10.0) / 400.0
    expected = [1.0 / (1.0 + 10.0 ** ((a - true_rating) / 400.0)) for a in anchors]
    information = per_anchor * sum(p * (1.0 - p) for p in expected) * scale * scale
    return 1.0 / math.sqrt(information)


def _recovery_failures(errors, sigma, window):
    """Check ML recovery errors against what a Fisher sd of `sigma` promises.

    Returns one "measured vs bound" line per failed check, [] when all hold:
    |mean| <= 4 sigma / sqrt(N); sd within sigma +/-10%; share of |error| <=
    window at least 2 Phi(window / sigma) - 1 minus four binomial standard
    errors.
    """
    n = len(errors)
    mean = sum(errors) / n
    sd = math.sqrt(sum((e - mean) ** 2 for e in errors) / (n - 1))
    share = sum(abs(e) <= window for e in errors) / n
    bias_bound = 4.0 * sigma / math.sqrt(n)
    normal_share = math.erf(window / (sigma * math.sqrt(2.0)))  # 2 Phi(w / sigma) - 1
    share_floor = normal_share - 4.0 * math.sqrt(normal_share * (1.0 - normal_share) / n)
    failures = []
    if abs(mean) > bias_bound:
        failures.append(f"|mean error| {abs(mean):.2f} > bound {bias_bound:.2f} Elo")
    if not 0.9 * sigma <= sd <= 1.1 * sigma:
        failures.append(
            f"error sd {sd:.2f} outside [{0.9 * sigma:.2f}, {1.1 * sigma:.2f}] Elo"
        )
    if share < share_floor:
        failures.append(f"within +/-{window:g}: {share:.1%} < bound {share_floor:.1%}")
    return failures


def test_criterion_5b_monte_carlo_recovery():
    with criterion(
        "5b",
        "2000 seeded 150-game ladders at 600: |bias| <= 4 sigma_F/sqrt(N), "
        "sd within sigma_F +/-10%, share within +/-40 >= 2 Phi(40/sigma_F) - 1 - 4 SE",
    ):
        rng = random.Random(20260809)
        anchors = [250.0, 375.0, 500.0, 625.0, 750.0]
        sigma = _fisher_sigma(600.0, anchors, 30)
        errors = []
        for _ in range(2000):
            estimate = estimate_elo(_simulate(rng, 600.0, anchors, 30))
            errors.append(estimate.rating - estimate.white_advantage - 600.0)
        # sigma_F is ~32 Elo here, so +/-40 holds in only ~78% of runs. Holding
        # it in 90% needs sigma_F <= 40 / 1.645, about 266 games on this ladder,
        # so that share is not asserted at 150 games.
        failures = _recovery_failures(errors, sigma, 40.0)
        assert not failures, f"sigma_F {sigma:.2f} Elo; " + "; ".join(failures)
        # The same checks fail a biased or mis-scaled estimator.
        assert _recovery_failures([e + 35.0 for e in errors], sigma, 40.0), (
            "errors with the white advantage left in (+35) were not rejected"
        )
        for factor in (1.2, 0.8):
            assert _recovery_failures([e * factor for e in errors], sigma, 40.0), (
                f"errors scaled by {factor} were not rejected"
            )


def test_criterion_5c_confidence_interval_coverage():
    with criterion("5c", "95% CI covers the true rating in 95 +/- 5pp of 2000 trials"):
        rng = random.Random(31337)
        anchors = [250.0, 375.0, 500.0, 625.0, 750.0]
        covered = 0
        for _ in range(2000):
            estimate = estimate_elo(_simulate(rng, 600.0, anchors, 30))
            root = estimate.rating - estimate.white_advantage
            if abs(root - 600.0) <= estimate.ci_half_width:
                covered += 1
        rate = covered / 2000
        assert 0.90 <= rate <= 1.00, f"coverage {rate:.1%}"
        assert abs(rate - 0.95) <= 0.05


def test_criterion_6_aggregation_fixtures():
    with criterion("6", "synthetic record sets reproduce reference table rows"):
        sweep = aggregate([make_record("checkmate_llm", ply_count=80) for _ in range(30)])
        assert round(sweep.win_loss_percent, 1) == 100.0
        assert round(sweep.mate_black_pct, 1) == 100.0
        assert round(sweep.instruction_pct, 1) == 0.0

        drawish_records = [make_record("max_moves", ply_count=200) for _ in range(29)]
        drawish_records.append(make_record("checkmate_opponent", ply_count=122))
        drawish = aggregate(drawish_records)
        assert round(drawish.win_loss_percent, 1) == 48.3
        assert round(drawish.draw_pct, 1) == 96.7
        assert round(drawish.avg_plies, 1) == 197.4

        even = aggregate(
            [make_record("checkmate_llm") for _ in range(5)]
            + [make_record("checkmate_opponent") for _ in range(5)]
        )
        assert even.win_loss_percent == 50.0


def test_criterion_7_desk_scale_run():
    with criterion("7", "100 seeded random games terminate in caps, any parallelism"):
        cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=777)
        configs = [replace(cfg, seed=cfg.seed + i) for i in range(100)]
        serial = list(play_games(configs, parallelism=1))
        allowed = runner.DRAW_TERMINATIONS | {
            runner.TERM_CHECKMATE_SUBJECT,
            runner.TERM_CHECKMATE_OPPONENT,
        }
        for record in serial:
            assert record.ply_count <= 200
            assert record.termination in allowed
        parallel = list(play_games(configs, parallelism=8))
        assert sorted(r.fingerprint() for r in serial) == sorted(
            r.fingerprint() for r in parallel
        )


def test_criterion_8_elo_sanity_against_reference_rows():
    with criterion("8", "reconstructed engine-ladder outcomes land near 758"):
        # Per-skill (anchor, games, win-loss difference) from the reference
        # run; draws are reconstructed minimally to satisfy parity, which
        # does not move the estimate (only win-loss totals do).
        rows = [
            (250.0, 33, 21),
            (375.0, 33, 15),
            (500.0, 33, 17),
            (625.0, 33, 12),
            (750.0, 32, 14),
        ]
        outcomes = []
        for rating, games, diff in rows:
            draws = (games - diff) % 2
            wins = (games - draws + diff) // 2
            losses = games - draws - wins
            outcomes += [MatchOutcome(rating, 1.0)] * wins
            outcomes += [MatchOutcome(rating, 0.5)] * draws
            outcomes += [MatchOutcome(rating, 0.0)] * losses
        estimate = estimate_elo(outcomes)
        assert abs(estimate.rating - 758.0) <= 60.0, estimate.rating


class _ScriptedSession:
    def __init__(self, responses):
        self._responses = list(responses)
        self.calls = 0

    def evaluate(self, fen, depth):
        self.calls += 1
        return self._responses.pop(0)


def test_criterion_9_analysis_pipeline(tmp_path):
    with criterion("9", "analysis: 2k engine calls, perspective flip, exact rates"):
        # 2k scoring calls, counted at the UCI wire with a scripted engine.
        cfg = GameConfig(
            white=ScriptedMoverSpec(("e2e4", "d2d4", "g1f3")),
            black=ScriptedDialogSpec(
                ("make_move e7e5", "make_move b8c6", "make_move g8f6"), cycle=False
            ),
        )
        record = runner.play_game(cfg)
        k = sum(1 for p in record.plies if p.mover == record.subject_color)
        assert k == 3
        log_path = tmp_path / "wire.txt"
        script = tmp_path / "script.json"
        script.write_text(json.dumps({
            "responses": [{"score": "cp 17", "bestmove": "e7e5"}],
            "log": str(log_path),
        }))
        config = AnalysisEngineConfig(command=(sys.executable, str(FAKE_UCI), str(script)))
        engine = config.spawn()
        try:
            evaluations = evaluate_subject_plies(record, engine, config.depth)
        finally:
            engine.quit()
        wire = log_path.read_text().splitlines()
        assert wire.count("go depth 20") == 2 * k
        assert summarize_evaluations(evaluations).subject_plies == k

        # Perspective negation: the after-move score is the opponent's view.
        raw_after = 17
        assert evaluations[0].win_after == pytest.approx(
            100.0 - win_percent(raw_after), abs=1e-9
        )

        # Profile fixture: 1000 subject plies at 4.2 / 1.1 / 4.0 / 19.5.
        fixture = make_record("max_moves", ply_count=2000)
        responses = []
        for j in range(1000):
            if j < 42:
                before, after = 400, 400     # drop of ~62.7: blunder
            elif j < 53:
                before, after = 200, 50      # drop of ~22.2: mistake
            elif j < 93:
                before, after = 100, 50      # drop of ~13.7: inaccuracy
            else:
                before, after = 0, 0
            best = "e2e4" if j < 195 else "a1a1"  # plies carry dummy "e2e4"
            responses.append((("cp", before), best))
            responses.append((("cp", after), None))
        # Bucket sanity from the independent formula evaluation.
        assert eq1(400) - eq1(-400) >= 30
        assert 20 <= eq1(200) - eq1(-50) < 30
        assert 10 <= eq1(100) - eq1(-50) < 20
        session = _ScriptedSession(responses)
        profile = summarize_evaluations(evaluate_subject_plies(fixture, session))
        assert session.calls == 2000
        assert profile.blunder_rate == 4.2
        assert profile.mistake_rate == 1.1
        assert profile.inaccuracy_rate == 4.0
        assert profile.best_rate == 19.5
