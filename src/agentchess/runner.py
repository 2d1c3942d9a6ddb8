"""Full-game orchestration: alternate plys, enforce caps, classify endings.

A game couples two player specs (shared by every game of a run; each game
gets fresh players from them), a dialog configuration, and one seed. The
measured subject is the dialog player when there is one, otherwise the
configured subject color (black by default, matching the usual harness
setup). Every way a game can end maps to exactly one termination reason,
and every reason maps to win, draw or loss for the subject.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

from . import dialog, rules
from .dialog import DialogLimits, PlyTranscript, ProtocolVariant
from .players import (
    EngineConfig,
    LLMEndpointConfig,
    MoAConfig,
    ModelError,
    engine_move,
    llm_reply,
    moa_reply,
    random_move,
    spawn_engine,
)

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


# ---------------------------------------------------------------------------
# Player specs. A spec is frozen and shared by every game of a cell; play()
# owns one game's resources (an engine session, a place in a script) and
# yields that game's function: reply(messages) for dialog players,
# choose_move(board, rng) for movers. Only dialog players, which are always
# the measured subject, append token usage to `usage`.


def _next_or_fail(items, reason: str, detail: str):
    try:
        return next(items)
    except StopIteration:
        raise ModelError(reason, detail) from None


@dataclass(frozen=True)
class RandomSpec:
    is_dialog = False

    @contextmanager
    def play(self, usage):
        yield random_move

    def describe(self):
        return {"kind": "random"}


@dataclass(frozen=True)
class EngineSpec:
    config: EngineConfig
    is_dialog = False

    @contextmanager
    def play(self, usage):
        with spawn_engine(self.config) as engine:
            yield lambda board, rng: engine_move(board, engine)

    def describe(self):
        return {
            "kind": "engine",
            "command": list(self.config.command),
            "skill": self.config.skill,
        }


@dataclass(frozen=True)
class EndpointSpec:
    config: LLMEndpointConfig
    is_dialog = True

    @contextmanager
    def play(self, usage):
        yield functools.partial(llm_reply, cfg=self.config, usage_log=usage)

    def describe(self):
        return {
            "kind": "endpoint",
            "model": self.config.model,
            "base_url": self.config.base_url,
            "reasoning_effort": self.config.reasoning_effort,
        }


@dataclass(frozen=True)
class MoASpec:
    config: MoAConfig
    is_dialog = True

    @contextmanager
    def play(self, usage):
        reply_fn = functools.partial(llm_reply, usage_log=usage)
        yield lambda messages: moa_reply(messages, self.config, reply_fn)

    def describe(self):
        return {
            "kind": "moa",
            "proposers": [p.model for p in self.config.proposers],
            "synthesizer": self.config.synthesizer.model,
        }


@dataclass(frozen=True)
class ScriptedDialogSpec:
    """Canned dialog replies, for harness tests and offline smoke runs."""

    replies: tuple
    cycle: bool = True
    is_dialog = True

    @contextmanager
    def play(self, usage):
        replies = itertools.cycle(self.replies) if self.cycle else iter(self.replies)
        yield lambda messages: _next_or_fail(replies, "transport", "scripted replies exhausted")

    def describe(self):
        return {"kind": "scripted_dialog", "replies": len(self.replies)}


@dataclass(frozen=True)
class ScriptedMoverSpec:
    """Canned UCI moves played in order, for deterministic opponents."""

    moves: tuple
    is_dialog = False

    @contextmanager
    def play(self, usage):
        moves = iter(self.moves)
        yield lambda board, rng: rules.Move.from_uci(
            _next_or_fail(moves, "engine", "scripted moves exhausted")
        )

    def describe(self):
        return {"kind": "scripted_mover", "moves": list(self.moves)}


# ---------------------------------------------------------------------------


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


@dataclass
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

    @property
    def full_moves(self) -> int:
        return len(self.plies) // 2

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


def run_games(cfg: GameConfig, n: int, parallelism: int = 1, seed_base: int | None = None,
              on_record=None) -> list:
    """Play n games from one config template, game i seeded seed_base + i.

    Results come back in game-index order regardless of completion order;
    on_record (if given) fires as each game finishes, serialized by a lock,
    so callers can persist completed games incrementally.
    """
    if n < 1:
        raise ValueError("need at least one game")
    if seed_base is None:
        seed_base = cfg.seed
    lock = threading.Lock()

    def one(index: int):
        record = play_game(replace(cfg, seed=seed_base + index))
        with lock:
            print(
                f"game {index + 1}/{n}: {record.termination} plys={record.ply_count}",
                file=sys.stderr,
            )
            if on_record is not None:
                on_record(index, record)
        return record

    if parallelism <= 1:
        return [one(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, range(n)))
