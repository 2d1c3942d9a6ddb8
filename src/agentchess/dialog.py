"""The per-ply conversation state machine.

Each ply is an independent bounded dialog: prompt the player, parse the
reply into one of three actions, answer queries, reflect failures back, and
stop after a completed move, too many wrong actions in one turn, or too many
turns. Action matching is plain case-sensitive substring search; the first
recognized keyword in the reply wins, and only actions the variant offers
are recognized at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import prompts, rules

GET_CURRENT_BOARD = "get_current_board"
GET_LEGAL_MOVES = "get_legal_moves"
MAKE_MOVE = "make_move"

# Ply outcomes.
MOVE_MADE = "move_made"
TOO_MANY_WRONG_ACTIONS = "too_many_wrong_actions"
MAX_TURNS = "max_turns"

# Each action's line in the opening prompt, in prompt order.
_ACTION_LINES = {
    GET_CURRENT_BOARD: prompts.ACTION_LINE_GET_BOARD,
    GET_LEGAL_MOVES: prompts.ACTION_LINE_GET_LEGAL_MOVES,
    MAKE_MOVE: prompts.ACTION_LINE_MAKE_MOVE,
}

# Punctuation stripped from the make_move argument token.
_ARG_STRIP = "`'\".,:;!?()[]{}<>"


@dataclass(frozen=True)
class DialogLimits:
    """Caps on one game's dialogs: turns per ply, attempts per turn, moves."""

    max_turns_per_ply: int = 10
    max_attempts_per_turn: int = 3
    max_full_moves: int = 100

    def __post_init__(self):
        for name in ("max_turns_per_ply", "max_attempts_per_turn", "max_full_moves"):
            value = getattr(self, name)  # a fraction would end games early and be logged as given
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, not {value!r}")


@dataclass(frozen=True)
class ProtocolVariant:
    """Which actions are offered and what the prompt embeds inline."""

    board_style: str = "unicode"  # unicode | ascii | fen
    offer_get_board: bool = True
    offer_get_legal_moves: bool = True
    inline_board: bool = False
    inline_legal_moves: bool = False
    include_move_history: bool = False

    def __post_init__(self):
        if self.board_style not in ("unicode", "ascii", "fen"):
            raise ValueError(f"unknown board style {self.board_style!r}")
        if self.actions == (MAKE_MOVE,) and not (self.inline_board and self.inline_legal_moves):
            raise ValueError(
                "a make_move-only variant must inline both the board and the legal moves"
            )

    @property
    def actions(self) -> tuple:
        """The offered action names in prompt order; make_move is always offered, last."""
        offers = (self.offer_get_board, self.offer_get_legal_moves, True)
        return tuple(name for name, offered in zip(_ACTION_LINES, offers) if offered)


# Named configurations matching the ablation grid the harness supports.
VARIANTS = {
    "baseline": ProtocolVariant(),
    "always_board_state": ProtocolVariant(offer_get_board=False, inline_board=True),
    "always_legal_moves": ProtocolVariant(offer_get_legal_moves=False, inline_legal_moves=True),
    "only_make_move": ProtocolVariant(
        offer_get_board=False,
        offer_get_legal_moves=False,
        inline_board=True,
        inline_legal_moves=True,
    ),
    "ascii_board": ProtocolVariant(board_style="ascii"),
    "fen_board": ProtocolVariant(board_style="fen"),
    "no_legal_moves": ProtocolVariant(board_style="fen", offer_get_legal_moves=False),
    "previous_moves": ProtocolVariant(include_move_history=True),
    "previous_moves_only_make_move": ProtocolVariant(
        offer_get_board=False,
        offer_get_legal_moves=False,
        inline_board=True,
        inline_legal_moves=True,
        include_move_history=True,
    ),
}


@dataclass(frozen=True)
class ActionRequest:
    kind: str
    argument: str | None = None


@dataclass
class Exchange:
    prompt: str
    reply: str
    outcome: str  # action kind, "illegal_move", or "unparsable"


@dataclass
class PlyTranscript:
    """The full dialog for one half-move, with its counters and outcome."""

    exchanges: list = field(default_factory=list)
    outcome: str = MAX_TURNS
    move: str | None = None
    turns_used: int = 0
    failed_attempts: int = 0
    board_queries: int = 0
    legal_move_queries: int = 0
    illegal_move_attempts: int = 0
    unparsable_replies: int = 0


def color_word(color: str) -> str:
    return "white" if color == rules.WHITE else "black"


def format_move_history(moves) -> str:
    """Render played UCI moves as numbered full-move groups.

    Complete groups end with a comma; a trailing white-only ply closes the
    line bare, e.g. "Previous moves (UCI): 1. e2e3 g8f6, 2. a2a4".
    """
    groups = []
    for i in range(0, len(moves), 2):
        number = i // 2 + 1
        if i + 1 < len(moves):
            groups.append(f"{number}. {moves[i]} {moves[i + 1]},")
        else:
            groups.append(f"{number}. {moves[i]}")
    return prompts.MOVE_HISTORY_HEADER + " ".join(groups)


def build_game_loop_prompt(color, variant: ProtocolVariant, board, history=()) -> str:
    """The prompt that opens a ply's conversation.

    The baseline variant is the frozen two-query-plus-make_move text;
    ablation variants drop query action lines and inline the board, the
    legal-move list, or the move history instead.
    """
    lines = [prompts.GAME_LOOP_HEADER.format(color=color_word(color))]
    lines += [_ACTION_LINES[name] for name in variant.actions]
    if variant.inline_board:
        lines.append(prompts.INLINE_BOARD_HEADER)
        lines.append(rules.render_board(board, variant.board_style))
    if variant.inline_legal_moves:
        moves = ", ".join(m.uci() for m in rules.legal_moves(board))
        lines.append(prompts.INLINE_LEGAL_MOVES_HEADER + moves)
    lines.append(prompts.GAME_LOOP_FOOTER)
    body = "\n".join(lines)
    if variant.include_move_history and history:
        body = format_move_history(list(history)) + "\n" + body
    return body


def invalid_action_reflection(variant: ProtocolVariant) -> str:
    options = variant.actions[:-1] + (prompts.MAKE_MOVE_USAGE,)  # make_move with its argument
    return prompts.INVALID_ACTION_HEADER + ", ".join(options)


def parse_action(reply: str, variant: ProtocolVariant) -> ActionRequest | None:
    """Match a reply to an offered action; None means unparsable.

    First keyword occurrence wins. The make_move argument is the next
    whitespace-delimited token, stripped of surrounding punctuation; missing
    arguments make the reply unparsable.
    """
    hits = [(reply.find(k), k) for k in variant.actions]
    hits = [(pos, k) for pos, k in hits if pos != -1]
    if not hits:
        return None
    pos, keyword = min(hits)
    if keyword != MAKE_MOVE:
        return ActionRequest(keyword)
    tail = reply[pos + len(MAKE_MOVE):].split()
    if not tail:
        return None
    argument = tail[0].strip(_ARG_STRIP)
    if not argument:
        return None
    return ActionRequest(MAKE_MOVE, argument)


def respond_to_action(action: ActionRequest, board, variant: ProtocolVariant):
    """Execute a parsed action, returning (reply text, applied move or None).

    An illegal make_move is a normal protocol reply: the reflection text
    quoting the offending move and the position's FEN, with no move applied.
    """
    if action.kind == GET_CURRENT_BOARD:
        return rules.render_board(board, variant.board_style), None
    if action.kind == GET_LEGAL_MOVES:
        return ", ".join(m.uci() for m in rules.legal_moves(board)), None
    if action.kind != MAKE_MOVE:
        raise ValueError(f"unknown action kind {action.kind!r}")
    try:
        rules.apply_uci(board, action.argument or "")
    except rules.IllegalMoveError as exc:
        return prompts.ILLEGAL_MOVE_PREFIX + str(exc), None
    return prompts.MOVE_MADE, rules.Move.from_uci(action.argument)


def run_ply(board, reply_fn, limits: DialogLimits, variant: ProtocolVariant,
            move_history=()) -> PlyTranscript:
    """Run one half-move's dialog against a reply function.

    `reply_fn` receives the accumulated chat transcript (role/content dicts)
    and returns the player's reply text; transport failures should raise
    players.ModelError, which propagates to the match runner untouched.
    Every successfully parsed action consumes a turn; unparsable replies and
    illegal moves consume attempts within the current turn. History never
    crosses ply boundaries unless the variant includes it in the prompt.
    """
    prompt = build_game_loop_prompt(board.turn, variant, board, move_history)
    messages = [{"role": "user", "content": prompt}]
    transcript = PlyTranscript()
    while transcript.turns_used < limits.max_turns_per_ply:
        transcript.turns_used += 1
        attempts = 0
        while True:
            reply = reply_fn(list(messages))
            messages.append({"role": "assistant", "content": reply})
            action = parse_action(reply, variant)
            if action is None:
                transcript.unparsable_replies += 1
                outcome, response = "unparsable", invalid_action_reflection(variant)
            else:
                response, move = respond_to_action(action, board, variant)
                if move is not None:
                    transcript.exchanges.append(Exchange(prompt, reply, MOVE_MADE))
                    transcript.outcome = MOVE_MADE
                    transcript.move = move.uci()
                    return transcript
                if action.kind != MAKE_MOVE:
                    if action.kind == GET_CURRENT_BOARD:
                        transcript.board_queries += 1
                    else:
                        transcript.legal_move_queries += 1
                    transcript.exchanges.append(Exchange(prompt, reply, action.kind))
                    prompt = response
                    messages.append({"role": "user", "content": prompt})
                    break  # turn consumed, next turn
                transcript.illegal_move_attempts += 1
                outcome = "illegal_move"
            # The one wrong-action path: an unparsable reply or an illegal move.
            transcript.failed_attempts += 1
            attempts += 1
            transcript.exchanges.append(Exchange(prompt, reply, outcome))
            if attempts >= limits.max_attempts_per_turn:
                transcript.outcome = TOO_MANY_WRONG_ACTIONS
                return transcript
            prompt = response
            messages.append({"role": "user", "content": prompt})
    transcript.outcome = MAX_TURNS
    return transcript
