"""Post-hoc move-quality pipeline.

For every subject ply: search the position before the move (capturing the
engine's best move) and after it, convert both scores to centipawns from the
subject's perspective, map centipawns to a winning percentage, and classify
the drop. UCI engines score the side to move, so the after-move search,
where the opponent is on the move, is negated before the conversion.

Analysis runs offline over stored records, never during play.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import rules
from .players import UciEngine

WIN_PERCENT_SLOPE = 0.00368208
MATE_SCORE_CP = 1000

JUDGMENT_NONE = "none"
JUDGMENT_INACCURACY = "inaccuracy"
JUDGMENT_MISTAKE = "mistake"
JUDGMENT_BLUNDER = "blunder"

# The engine settings the paper fixes for scoring.
ANALYSIS_OPTIONS = (("Threads", 1), ("Hash", 128), ("MultiPV", 1), ("Skill Level", 20))

BLUNDER_DELTA = 30.0
MISTAKE_DELTA = 20.0
INACCURACY_DELTA = 10.0


@dataclass(frozen=True)
class AnalysisEngineConfig:
    """Engine settings for scoring: fixed depth, single thread, one line."""

    command: tuple
    depth: int = 20

    def spawn(self) -> UciEngine:
        return UciEngine(self.command, options=ANALYSIS_OPTIONS).start()


def normalize_score(kind: str, value: int) -> int:
    """Engine score to centipawns: cp passes through, mates clamp to +/-1000.

    "mate 0" means the side to move is already mated, so it counts as a
    losing mate.
    """
    if kind == "cp":
        return int(value)
    if kind == "mate":
        return MATE_SCORE_CP if value > 0 else -MATE_SCORE_CP
    raise ValueError(f"unknown score kind {kind!r}")


def win_percent(cp: float) -> float:
    """Winning chance in percent for the side the centipawns favor.

    Logistic in the centipawn score, 50 at zero, symmetric around it:
    win_percent(-x) == 100 - win_percent(x).
    """
    x = WIN_PERCENT_SLOPE * cp
    if x > 700.0:
        return 100.0
    if x < -700.0:
        return 0.0
    return 50.0 + 50.0 * (2.0 / (1.0 + math.exp(-x)) - 1.0)


def judge(win_before: float, win_after: float) -> str:
    """Classify a move by how far the mover's Win% dropped.

    Thresholds are boundary-inclusive: a drop of exactly 30 is a blunder,
    20 a mistake, 10 an inaccuracy.
    """
    delta = win_before - win_after
    if delta >= BLUNDER_DELTA:
        return JUDGMENT_BLUNDER
    if delta >= MISTAKE_DELTA:
        return JUDGMENT_MISTAKE
    if delta >= INACCURACY_DELTA:
        return JUDGMENT_INACCURACY
    return JUDGMENT_NONE


@dataclass
class PlyEvaluation:
    """Scores and judgment for one subject half-move."""

    ply_index: int
    uci: str
    cp_before: int
    cp_after: int
    win_before: float
    win_after: float
    delta: float
    judgment: str
    is_best: bool


@dataclass
class GameQualitySummary:
    evaluations: list
    subject_plies: int
    blunder_rate: float  # percent of subject plies
    mistake_rate: float
    inaccuracy_rate: float
    best_rate: float
    avg_win_percent: float


def summarize_evaluations(evaluations) -> GameQualitySummary:
    """Aggregate per-ply evaluations into the rate metrics."""
    evaluations = list(evaluations)
    total = len(evaluations)
    if total == 0:
        raise ValueError("nothing to summarize: no subject plies")

    def rate(predicate) -> float:
        return sum(1 for e in evaluations if predicate(e)) * 100.0 / total

    return GameQualitySummary(
        evaluations=evaluations,
        subject_plies=total,
        blunder_rate=rate(lambda e: e.judgment == JUDGMENT_BLUNDER),
        mistake_rate=rate(lambda e: e.judgment == JUDGMENT_MISTAKE),
        inaccuracy_rate=rate(lambda e: e.judgment == JUDGMENT_INACCURACY),
        best_rate=rate(lambda e: e.is_best),
        avg_win_percent=sum(e.win_after for e in evaluations) / total,
    )


def evaluate_subject_plies(record, engine, depth: int = 20) -> list:
    """Score a record's subject plies: exactly two searches per ply.

    `engine` needs an evaluate(fen, depth) -> ((kind, value), best) method;
    a live UciEngine qualifies, as does any scripted stand-in. The before
    search supplies the best-move comparison; the after search is an
    independent re-search of the resulting position.
    """
    evaluations = []
    fen_before = rules.START_FEN
    for index, ply in enumerate(record.plies):
        if ply.mover == record.subject_color:
            (kind, value), best = engine.evaluate(fen_before, depth)
            cp_before = normalize_score(kind, value)
            (kind, value), _ = engine.evaluate(ply.fen_after, depth)
            cp_after = -normalize_score(kind, value)  # opponent is on the move
            win_before = win_percent(cp_before)
            win_after = win_percent(cp_after)
            evaluations.append(PlyEvaluation(
                ply_index=index,
                uci=ply.uci,
                cp_before=cp_before,
                cp_after=cp_after,
                win_before=win_before,
                win_after=win_after,
                delta=win_before - win_after,
                judgment=judge(win_before, win_after),
                is_best=best == ply.uci,
            ))
        fen_before = ply.fen_after
    return evaluations


def analyze_game(record, engine, depth: int = 20) -> GameQualitySummary:
    """Full quality summary for one game's subject plies."""
    return summarize_evaluations(evaluate_subject_plies(record, engine, depth))
