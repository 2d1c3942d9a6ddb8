"""Full-game orchestration: alternate plys, enforce caps, classify endings.

A game couples two players, a dialog configuration, and one seed. A player
is shared by every game of a run, and its play() gives each game fresh
resources; the player kinds live in `players`. The measured subject is the
dialog player when there is one, otherwise the configured subject color
(black by default, matching the usual harness setup). Every way a game
can end maps to exactly one termination reason, and every reason maps to
win, draw or loss for the subject.
"""
from __future__ import annotations

import collections
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import dialog, rules
from .dialog import DialogLimits, PlyTranscript, ProtocolVariant
from .players import ModelError

# Termination reasons. The draw identifiers reuse the rules module's status
# kinds so status mapping is the identity for draws.
TERM_CHECKMATE_SUBJECT = "checkmate_llm"
TERM_CHECKMATE_OPPONENT = "checkmate_opponent"
TERM_STALEMATE = rules.STALEMATE
TERM_INSUFFICIENT_MATERIAL = rules.INSUFFICIENT_MATERIAL
TERM_SEVENTYFIVE_MOVES = rules.SEVENTYFIVE_MOVES
TERM_FIVEFOLD_REPETITION = rules.FIVEFOLD_REPETITION
TERM_MAX_MOVES = "max_moves"
TERM_TOO_MANY_WRONG_ACTIONS = dialog.TOO_MANY_WRONG_ACTIONS
TERM_MAX_TURNS = dialog.MAX_TURNS
TERM_MODEL_ERROR = "model_error"

WIN_TERMINATIONS = frozenset({TERM_CHECKMATE_SUBJECT})
DRAW_TERMINATIONS = frozenset({
    TERM_STALEMATE,
    TERM_INSUFFICIENT_MATERIAL,
    TERM_SEVENTYFIVE_MOVES,
    TERM_FIVEFOLD_REPETITION,
    TERM_MAX_MOVES,
})
LOSS_TERMINATIONS = frozenset({
    TERM_CHECKMATE_OPPONENT,
    TERM_TOO_MANY_WRONG_ACTIONS,
    TERM_MAX_TURNS,
    TERM_MODEL_ERROR,
})
INSTRUCTION_TERMINATIONS = frozenset({TERM_TOO_MANY_WRONG_ACTIONS, TERM_MAX_TURNS})

EXCLUDE_MODEL_ERRORS = "exclude_model_errors"
COUNT_MODEL_ERRORS_AS_LOSS = "count_model_errors_as_loss"
ERROR_POLICIES = (EXCLUDE_MODEL_ERRORS, COUNT_MODEL_ERRORS_AS_LOSS)


def score_for_termination(termination: str) -> float:
    """Subject score: win 1, draw 0.5 (max_moves included), loss 0."""
    if termination in WIN_TERMINATIONS:
        return 1.0
    if termination in DRAW_TERMINATIONS:
        return 0.5
    if termination in LOSS_TERMINATIONS:
        return 0.0
    raise ValueError(f"unknown termination {termination!r}")


@dataclass(frozen=True)
class GameConfig:
    white: object
    black: object
    limits: DialogLimits = DialogLimits()
    variant: ProtocolVariant = ProtocolVariant()
    seed: int = 0
    error_policy: str = COUNT_MODEL_ERRORS_AS_LOSS
    subject_color: str | None = None

    def __post_init__(self):
        if self.error_policy not in ERROR_POLICIES:
            raise ValueError(f"unknown error policy {self.error_policy!r}")
        if self.white.is_dialog and self.black.is_dialog:
            raise ValueError("at most one side may be a dialog player (the measured subject)")
        if self.subject_color not in (None, rules.WHITE, rules.BLACK):
            raise ValueError(f"bad subject color {self.subject_color!r}")

    def resolve_subject_color(self) -> str:
        if self.white.is_dialog:
            return rules.WHITE
        if self.black.is_dialog:
            return rules.BLACK
        return self.subject_color or rules.BLACK

    def snapshot(self) -> dict:
        return {
            "white": self.white.describe(),
            "black": self.black.describe(),
            "limits": asdict(self.limits),
            "variant": asdict(self.variant),
            "seed": self.seed,
            "error_policy": self.error_policy,
            "subject_color": self.resolve_subject_color(),
        }


@dataclass(slots=True)  # one per ply of every game a log holds
class PlyRecord:
    mover: str
    uci: str
    fen_after: str
    transcript: PlyTranscript | None = None


@dataclass
class GameStats:
    """Sums over the game's dialog transcripts."""

    subject_dialogs: int = 0
    turns_used: int = 0
    board_queries: int = 0
    legal_move_queries: int = 0
    illegal_move_attempts: int = 0
    unparsable_replies: int = 0


@dataclass
class GameRecord:
    config: dict
    plies: list
    termination: str
    termination_detail: str | None
    error_side: str | None
    subject_color: str
    failed_transcript: PlyTranscript | None
    stats: GameStats
    excluded: bool
    duration_s: float
    started_at: str
    finished_at: str
    usage: list = field(default_factory=list)  # per-reply token usage, as reported

    @property
    def ply_count(self) -> int:
        return len(self.plies)

    def score(self) -> float | None:
        """Subject score, or None when the record is excluded from scoring."""
        if self.excluded:
            return None
        return score_for_termination(self.termination)

    def fingerprint(self) -> str:
        """Stable digest of game content, ignoring wall-clock fields."""
        payload = {
            "config": self.config,
            "plies": [(p.mover, p.uci, p.fen_after) for p in self.plies],
            "termination": self.termination,
            "detail": self.termination_detail,
            "error_side": self.error_side,
            "subject_color": self.subject_color,
            "excluded": self.excluded,
            "stats": asdict(self.stats),
        }
        return json.dumps(payload, sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "plies": [
                {
                    "mover": p.mover,
                    "uci": p.uci,
                    "fen_after": p.fen_after,
                    "transcript": asdict(p.transcript) if p.transcript else None,
                }
                for p in self.plies
            ],
            "termination": self.termination,
            "termination_detail": self.termination_detail,
            "error_side": self.error_side,
            "subject_color": self.subject_color,
            "failed_transcript": asdict(self.failed_transcript) if self.failed_transcript else None,
            "stats": asdict(self.stats),
            "excluded": self.excluded,
            "duration_s": self.duration_s,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "usage": self.usage,
        }


def _transcript_from_dict(data) -> PlyTranscript | None:
    if data is None:
        return None
    exchanges = [dialog.Exchange(**e) for e in data.get("exchanges", [])]
    fields = {k: v for k, v in data.items() if k != "exchanges"}
    return PlyTranscript(exchanges=exchanges, **fields)


def record_from_dict(data: dict) -> GameRecord:
    plies = [
        PlyRecord(
            mover=p["mover"],
            uci=p["uci"],
            fen_after=p["fen_after"],
            transcript=_transcript_from_dict(p.get("transcript")),
        )
        for p in data["plies"]
    ]
    return GameRecord(
        config=data["config"],
        plies=plies,
        termination=data["termination"],
        termination_detail=data.get("termination_detail"),
        error_side=data.get("error_side"),
        subject_color=data["subject_color"],
        failed_transcript=_transcript_from_dict(data.get("failed_transcript")),
        stats=GameStats(**data["stats"]),
        excluded=data["excluded"],
        duration_s=data.get("duration_s", 0.0),
        started_at=data.get("started_at", ""),
        finished_at=data.get("finished_at", ""),
        usage=data.get("usage", []),
    )


def _termination_from_status(status: rules.GameStatus, subject_color: str) -> str:
    if status.kind == rules.CHECKMATE:
        if status.winner == subject_color:
            return TERM_CHECKMATE_SUBJECT
        return TERM_CHECKMATE_OPPONENT
    return status.kind  # draw kinds share identifiers


def play_game(cfg: GameConfig) -> GameRecord:
    """Play one full game to its termination and record everything.

    All failure modes become termination reasons; exceptions escaping this
    function indicate harness bugs (for example a scripted mover supplying
    an illegal move), never game outcomes.
    """
    started = time.time()
    started_at = datetime.now(timezone.utc).isoformat()
    subject_color = cfg.resolve_subject_color()
    rng = random.Random(cfg.seed)
    usage: list = []

    board = rules.Board.initial()
    history = rules.PositionHistory()
    history.push(board)
    plies: list = []
    move_history: list = []
    transcripts: list = []
    failed_transcript = None
    termination = None
    detail = None
    error_side = None

    with ExitStack() as stack:
        try:
            mover_color = rules.WHITE  # a player that fails to start is this side's error
            white = stack.enter_context(cfg.white.play(usage))
            mover_color = rules.BLACK
            black = stack.enter_context(cfg.black.play(usage))
            while True:
                status = rules.game_status(board, history)
                if status.kind != rules.ONGOING:
                    termination = _termination_from_status(status, subject_color)
                    break
                if len(plies) >= cfg.limits.max_full_moves * 2:
                    termination = TERM_MAX_MOVES
                    break
                mover_color = board.turn
                spec, player = (cfg.white, white) if mover_color == rules.WHITE else (cfg.black, black)
                transcript = None
                if spec.is_dialog:
                    transcript = dialog.run_ply(board, player, cfg.limits, cfg.variant, move_history)
                    transcripts.append(transcript)
                    if transcript.outcome != dialog.MOVE_MADE:
                        termination = transcript.outcome
                        failed_transcript = transcript
                        break
                    move = rules.Move.from_uci(transcript.move)
                else:
                    move = player(board, rng)
                board = rules.apply_move(board, move)
                history.push(board)
                plies.append(PlyRecord(mover_color, move.uci(), rules.render_fen(board), transcript))
                move_history.append(move.uci())
        except ModelError as exc:
            termination = TERM_MODEL_ERROR
            detail = exc.reason
            error_side = mover_color

    stats = GameStats(subject_dialogs=len(transcripts))
    for t in transcripts:
        stats.turns_used += t.turns_used
        stats.board_queries += t.board_queries
        stats.legal_move_queries += t.legal_move_queries
        stats.illegal_move_attempts += t.illegal_move_attempts
        stats.unparsable_replies += t.unparsable_replies

    # Subject-side errors are excluded only under the exclusion policy;
    # opponent-side errors (an engine crash) never score the subject and are
    # excluded under both policies.
    excluded = termination == TERM_MODEL_ERROR and (
        cfg.error_policy == EXCLUDE_MODEL_ERRORS or error_side != subject_color
    )

    return GameRecord(
        config=cfg.snapshot(),
        plies=plies,
        termination=termination,
        termination_detail=detail,
        error_side=error_side,
        subject_color=subject_color,
        failed_transcript=failed_transcript,
        stats=stats,
        excluded=excluded,
        duration_s=time.time() - started,
        started_at=started_at,
        finished_at=datetime.now(timezone.utc).isoformat(),
        usage=usage,
    )


def play_games(configs, parallelism: int = 1):
    """Yield one record per config, in config order whatever the parallelism.

    Above parallelism 1, that many threads take the games in order. An
    interrupt while waiting cancels the games not yet started, lets those in
    flight finish, yields the gapless run of finished records, and re-raises.
    """
    if parallelism <= 1:
        for cfg in configs:
            yield play_game(cfg)
        return
    pool = ThreadPoolExecutor(max_workers=parallelism)
    pending = collections.deque(pool.submit(play_game, cfg) for cfg in configs)
    try:
        while pending:
            yield pending[0].result()
            pending.popleft()
    except KeyboardInterrupt:
        pool.shutdown(cancel_futures=True)
        for future in pending:
            if future.cancelled() or future.exception() is not None:
                break
            yield future.result()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
