from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchess import dialog, prompts, rules
from agentchess.dialog import (
    VARIANTS,
    ActionRequest,
    DialogLimits,
    Exchange,
    PlyTranscript,
    ProtocolVariant,
    build_game_loop_prompt,
    format_move_history,
    invalid_action_reflection,
    parse_action,
    respond_to_action,
    run_ply,
)

from conftest import FIXTURES

BASELINE = VARIANTS["baseline"]
LIMITS = DialogLimits()


def make_script(replies):
    """Reply function that pops a canned reply per call."""
    queue = list(replies)

    def reply_fn(messages):
        return queue.pop(0)

    return reply_fn


def test_baseline_prompt_matches_fixture_black():
    prompt = build_game_loop_prompt(rules.BLACK, BASELINE, rules.Board.initial())
    assert prompt == (FIXTURES / "game_loop_prompt_black.txt").read_text()


def test_baseline_prompt_matches_fixture_white():
    prompt = build_game_loop_prompt(rules.WHITE, BASELINE, rules.Board.initial())
    assert prompt == (FIXTURES / "game_loop_prompt_white.txt").read_text()


def test_invalid_action_reflection_matches_fixture():
    assert invalid_action_reflection(BASELINE) == (
        FIXTURES / "invalid_action_reflection.txt"
    ).read_text()


ALL_ACTIONS = ("get_current_board", "get_legal_moves", "make_move")
OFFERED = {
    "baseline": ALL_ACTIONS,
    "always_board_state": ("get_legal_moves", "make_move"),
    "always_legal_moves": ("get_current_board", "make_move"),
    "only_make_move": ("make_move",),
    "ascii_board": ALL_ACTIONS,
    "fen_board": ALL_ACTIONS,
    "no_legal_moves": ("get_current_board", "make_move"),
    "previous_moves": ALL_ACTIONS,
    "previous_moves_only_make_move": ("make_move",),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_prompt_reflection_and_parser_offer_the_same_actions(name):
    variant = VARIANTS[name]
    prompt = build_game_loop_prompt(rules.WHITE, variant, rules.Board.initial())
    prompt_actions = tuple(
        line[len("- `"):].split()[0].rstrip("'") for line in prompt.splitlines() if line.startswith("- `")
    )
    reflection = invalid_action_reflection(variant)
    assert reflection.startswith(prompts.INVALID_ACTION_HEADER)
    reflected = tuple(
        option.split()[0] for option in reflection[len(prompts.INVALID_ACTION_HEADER):].split(", ")
    )
    accepted = tuple(
        kind for kind in ALL_ACTIONS
        if parse_action(f"{kind} e2e4", variant) == ActionRequest(kind, "e2e4" if kind == "make_move" else None)
    )
    assert prompt_actions == reflected == accepted == OFFERED[name]


def test_only_make_move_prompt_lists_single_action():
    board = rules.Board.initial()
    prompt = build_game_loop_prompt(rules.BLACK, VARIANTS["only_make_move"], board)
    assert "get_current_board" not in prompt
    assert "get_legal_moves'" not in prompt
    assert prompts.ACTION_LINE_MAKE_MOVE in prompt
    assert prompts.INLINE_BOARD_HEADER in prompt
    assert "Legal moves (UCI): " in prompt
    for uci in ("a2a3", "e2e4", "h2h4"):
        assert uci in prompt


def test_always_board_state_prompt_inlines_board_only():
    board = rules.Board.initial()
    prompt = build_game_loop_prompt(rules.BLACK, VARIANTS["always_board_state"], board)
    assert prompts.ACTION_LINE_GET_BOARD not in prompt
    assert prompts.ACTION_LINE_GET_LEGAL_MOVES in prompt
    assert prompts.INLINE_BOARD_HEADER in prompt
    assert "Legal moves (UCI): " not in prompt


def test_fen_variant_inline_board_uses_fen():
    board = rules.Board.initial()
    variant = ProtocolVariant(board_style="fen", offer_get_board=False, inline_board=True)
    prompt = build_game_loop_prompt(rules.WHITE, variant, board)
    assert rules.START_FEN in prompt


def test_history_block_prepended_before_game_loop():
    board = rules.apply_uci(rules.apply_uci(rules.Board.initial(), "e2e4"), "e7e5")
    prompt = build_game_loop_prompt(
        rules.WHITE, VARIANTS["previous_moves"], board, ["e2e4", "e7e5"]
    )
    assert prompt.startswith("Previous moves (UCI): 1. e2e4 e7e5,\n")
    assert "You are a professional chess player" in prompt


def test_format_move_history_numbering():
    # 21 plies: ten complete moves plus white's eleventh ply.
    plies = [
        "e2e3", "g8f6", "a2a4", "e7e5", "e1e2", "b8c6", "b1a3", "f8e7",
        "a3b1", "e5e4", "b2b3", "e8g8", "c1a3", "d7d5", "g2g4", "f6g4",
        "a3d6", "e7d6", "d1e1", "g4e5", "b1a3",
    ]
    assert format_move_history(plies) == (
        "Previous moves (UCI): 1. e2e3 g8f6, 2. a2a4 e7e5, 3. e1e2 b8c6, "
        "4. b1a3 f8e7, 5. a3b1 e5e4, 6. b2b3 e8g8, 7. c1a3 d7d5, 8. g2g4 f6g4, "
        "9. a3d6 e7d6, 10. d1e1 g4e5, 11. b1a3"
    )


def test_format_move_history_trailing_comma_after_complete_move():
    assert format_move_history(["e2e4", "e7e5"]) == "Previous moves (UCI): 1. e2e4 e7e5,"


def test_variant_requires_inline_when_queries_removed():
    with pytest.raises(ValueError):
        ProtocolVariant(offer_get_board=False, offer_get_legal_moves=False)


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        DialogLimits(max_turns_per_ply=0)


@pytest.mark.parametrize(
    "reply,kind,argument",
    [
        ("get_current_board", "get_current_board", None),
        ("get_legal_moves", "get_legal_moves", None),
        ("make_move e7e5", "make_move", "e7e5"),
        ("I choose make_move e7e5 now", "make_move", "e7e5"),
        ("make_move 'e7e5'.", "make_move", "e7e5"),
        ("make_move `e7e5`", "make_move", "e7e5"),
        ("Let me get_current_board first", "get_current_board", None),
    ],
)
def test_parse_action_recognized(reply, kind, argument):
    action = parse_action(reply, BASELINE)
    assert action == ActionRequest(kind, argument)


@pytest.mark.parametrize(
    "reply",
    [
        "I will push my king pawn forward two squares.",
        "",
        "make_move",
        "make_move    ",
        "make_move ''",
        "GET_CURRENT_BOARD",  # matching is case-sensitive
    ],
)
def test_parse_action_unparsable(reply):
    assert parse_action(reply, BASELINE) is None


def test_parse_action_first_occurrence_wins():
    action = parse_action("get_legal_moves then make_move e7e5", BASELINE)
    assert action.kind == "get_legal_moves"
    action = parse_action("make_move e7e5 or get_legal_moves", BASELINE)
    assert action == ActionRequest("make_move", "e7e5")


def test_parse_action_respects_variant_offering():
    only = VARIANTS["only_make_move"]
    assert parse_action("get_current_board", only) is None
    assert parse_action("get_legal_moves", only) is None
    assert parse_action("make_move e7e5", only) == ActionRequest("make_move", "e7e5")


def test_respond_get_legal_moves_black_first_turn():
    board = rules.apply_uci(rules.Board.initial(), "e2e4")
    text, move = respond_to_action(ActionRequest("get_legal_moves"), board, BASELINE)
    assert move is None
    moves = text.split(", ")
    assert moves == sorted(moves)
    assert len(moves) == 20
    assert "a7a6" in moves and "h7h5" in moves and "g8f6" in moves


def test_respond_get_current_board_uses_variant_style():
    board = rules.Board.initial()
    text, _ = respond_to_action(ActionRequest("get_current_board"), board, BASELINE)
    assert text == rules.render_board(board, "unicode")
    ascii_variant = VARIANTS["ascii_board"]
    text, _ = respond_to_action(ActionRequest("get_current_board"), board, ascii_variant)
    assert text.split("\n")[0] == "r n b q k b n r"


def test_respond_make_move_legal():
    board = rules.apply_uci(rules.Board.initial(), "e2e4")
    text, move = respond_to_action(ActionRequest("make_move", "e7e5"), board, BASELINE)
    assert text == "Move made, switching player"
    assert move == rules.Move.from_uci("e7e5")


def test_respond_make_move_illegal_reflects_fen():
    board = rules.parse_fen(
        "r1bqk2r/pppp1ppp/1N2n1P1/4pKb1/8/P4Q1N/1PPPP1R1/R1B2B2 b kq - 12 25"
    )
    text, move = respond_to_action(ActionRequest("make_move", "b6c5"), board, BASELINE)
    assert move is None
    assert text == (
        "Failed to make move: illegal uci: 'b6c5' in "
        "r1bqk2r/pppp1ppp/1N2n1P1/4pKb1/8/P4Q1N/1PPPP1R1/R1B2B2 b kq - 12 25"
    )


def test_run_ply_compliant_three_turn_script():
    board = rules.apply_uci(rules.Board.initial(), "e2e4")
    first_legal = rules.legal_moves(board)[0].uci()
    script = make_script(["get_current_board", "get_legal_moves", f"make_move {first_legal}"])
    transcript = run_ply(board, script, LIMITS, BASELINE)
    assert transcript.outcome == dialog.MOVE_MADE
    assert transcript.move == first_legal
    assert transcript.turns_used == 3
    assert transcript.board_queries == 1
    assert transcript.legal_move_queries == 1
    assert transcript.failed_attempts == 0
    assert [e.outcome for e in transcript.exchanges] == [
        "get_current_board", "get_legal_moves", "move_made",
    ]


def test_run_ply_garbage_exhausts_attempts():
    board = rules.Board.initial()
    script = make_script(["banana"] * 3)
    transcript = run_ply(board, script, LIMITS, BASELINE)
    assert transcript.outcome == dialog.TOO_MANY_WRONG_ACTIONS
    assert transcript.failed_attempts == 3
    assert transcript.unparsable_replies == 3
    assert transcript.turns_used == 1
    assert transcript.move is None
    # Both failures after the first see the invalid-action reflection.
    assert transcript.exchanges[1].prompt == invalid_action_reflection(BASELINE)
    assert transcript.exchanges[2].prompt == invalid_action_reflection(BASELINE)


def test_run_ply_query_loop_hits_turn_cap():
    board = rules.Board.initial()
    script = make_script(["get_current_board"] * 10)
    transcript = run_ply(board, script, LIMITS, BASELINE)
    assert transcript.outcome == dialog.MAX_TURNS
    assert transcript.turns_used == 10
    assert transcript.board_queries == 10


def test_run_ply_illegal_move_reflects_and_counts_attempt():
    board = rules.Board.initial()
    script = make_script(["make_move e2e5", "make_move e2e4"])
    transcript = run_ply(board, script, LIMITS, BASELINE)
    assert transcript.outcome == dialog.MOVE_MADE
    assert transcript.move == "e2e4"
    assert transcript.illegal_move_attempts == 1
    assert transcript.turns_used == 1  # retry stays within the same turn
    assert transcript.exchanges[1].prompt.startswith("Failed to make move: illegal uci: 'e2e5' in ")


def test_run_ply_attempts_reset_each_turn():
    board = rules.Board.initial()
    script = make_script([
        "huh", "huh", "get_current_board",  # two failures, then a parsed action
        "huh", "huh", "get_legal_moves",
        "huh", "huh", "make_move e2e4",
    ])
    transcript = run_ply(board, script, LIMITS, BASELINE)
    assert transcript.outcome == dialog.MOVE_MADE
    assert transcript.failed_attempts == 6
    assert transcript.turns_used == 3


def test_run_ply_first_prompt_is_game_loop_prompt():
    board = rules.Board.initial()
    seen = []

    def reply_fn(messages):
        seen.append([dict(m) for m in messages])
        return "make_move e2e4"

    run_ply(board, reply_fn, LIMITS, BASELINE)
    assert seen[0] == [{
        "role": "user",
        "content": (FIXTURES / "game_loop_prompt_white.txt").read_text(),
    }]


def test_run_ply_conversation_accumulates_within_ply():
    board = rules.Board.initial()
    lengths = []

    def reply_fn(messages):
        lengths.append(len(messages))
        return ["get_current_board", "get_legal_moves", "make_move e2e4"][len(lengths) - 1]

    run_ply(board, reply_fn, LIMITS, BASELINE)
    assert lengths == [1, 3, 5]


def test_run_ply_deterministic_for_identical_scripts():
    board = rules.apply_uci(rules.Board.initial(), "d2d4")
    script = ["get_legal_moves", "make_move g8f6"]
    one = run_ply(board, make_script(script), LIMITS, BASELINE)
    two = run_ply(board, make_script(script), LIMITS, BASELINE)
    assert one == two


def test_run_ply_only_make_move_never_answers_queries():
    board = rules.Board.initial()
    script = make_script(["get_current_board", "get_legal_moves", "make_move e2e4"])
    transcript = run_ply(board, script, LIMITS, VARIANTS["only_make_move"])
    assert transcript.board_queries == 0
    assert transcript.legal_move_queries == 0
    assert transcript.unparsable_replies == 2
    assert transcript.outcome == dialog.MOVE_MADE


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.sampled_from([
        "get_current_board", "get_legal_moves", "make_move e2e4",
        "make_move e2e5", "make_move zzz", "noise", "",
    ]),
    min_size=1, max_size=40,
))
def test_run_ply_caps_hold_for_arbitrary_scripts(script):
    board = rules.Board.initial()
    padded = script + ["noise"] * 40  # never run out of replies
    transcript = run_ply(board, make_script(padded), LIMITS, BASELINE)
    assert transcript.turns_used <= LIMITS.max_turns_per_ply
    assert transcript.outcome in (
        dialog.MOVE_MADE, dialog.TOO_MANY_WRONG_ACTIONS, dialog.MAX_TURNS
    )
    consumed = (
        transcript.board_queries
        + transcript.legal_move_queries
        + (1 if transcript.outcome == dialog.MOVE_MADE else 0)
        + transcript.illegal_move_attempts
    )
    assert consumed <= transcript.turns_used * LIMITS.max_attempts_per_turn
    if transcript.outcome == dialog.MOVE_MADE:
        assert transcript.move == "e2e4"


# Exact conversations from the initial position, white to move. Each reply's
# logged outcome fixes the harness's answer to it: an unparsable reply gets
# the variant's reflection, an illegal move the failure text, a query its
# answer, and a completed move ends the ply.
PLY_LIMITS = DialogLimits(max_turns_per_ply=3, max_attempts_per_turn=3)
START = rules.Board.initial()
START_MOVES = ", ".join(m.uci() for m in rules.legal_moves(START))
WHITE_HEADER = prompts.GAME_LOOP_HEADER.format(color="white")
OPENING = {
    "baseline": (FIXTURES / "game_loop_prompt_white.txt").read_text(),
    "no_legal_moves": "\n".join([
        WHITE_HEADER, prompts.ACTION_LINE_GET_BOARD, prompts.ACTION_LINE_MAKE_MOVE, prompts.GAME_LOOP_FOOTER,
    ]),
    "only_make_move": "\n".join([
        WHITE_HEADER, prompts.ACTION_LINE_MAKE_MOVE, prompts.INLINE_BOARD_HEADER,
        rules.render_board(START, "unicode"), prompts.INLINE_LEGAL_MOVES_HEADER + START_MOVES,
        prompts.GAME_LOOP_FOOTER,
    ]),
}
ANSWER = {
    "baseline": {
        "unparsable": (FIXTURES / "invalid_action_reflection.txt").read_text(),
        "get_current_board": rules.render_board(START, "unicode"),
        "get_legal_moves": START_MOVES,
    },
    "no_legal_moves": {
        "unparsable": prompts.INVALID_ACTION_HEADER + "get_current_board, make_move <UCI formatted move>",
        "get_current_board": rules.START_FEN,
    },
    "only_make_move": {"unparsable": prompts.INVALID_ACTION_HEADER + "make_move <UCI formatted move>"},
}
ILLEGAL_E2E5 = f"Failed to make move: illegal uci: 'e2e5' in {rules.START_FEN}"
WRONG_THEN_MOVE = ["banana", "make_move e2e5", "get_legal_moves", "make_move e2e4"]
QUERIES_TO_CAP = ["get_current_board", "noise", "get_legal_moves", "get_current_board", "get_current_board"]
QUERY_ILLEGAL_LEGAL = ["get_current_board", "make_move e2e5", "make_move e2e4"]


@pytest.mark.parametrize("name, replies, outcomes, ending, turns", [
    ("baseline", WRONG_THEN_MOVE,
     ["unparsable", "illegal_move", "get_legal_moves", "move_made"], "move_made", 2),
    ("no_legal_moves", WRONG_THEN_MOVE,
     ["unparsable", "illegal_move", "unparsable"], "too_many_wrong_actions", 1),
    ("only_make_move", WRONG_THEN_MOVE,
     ["unparsable", "illegal_move", "unparsable"], "too_many_wrong_actions", 1),
    ("baseline", QUERIES_TO_CAP,
     ["get_current_board", "unparsable", "get_legal_moves", "get_current_board"], "max_turns", 3),
    ("no_legal_moves", QUERIES_TO_CAP,
     ["get_current_board", "unparsable", "unparsable", "get_current_board", "get_current_board"],
     "max_turns", 3),
    ("only_make_move", QUERIES_TO_CAP,
     ["unparsable", "unparsable", "unparsable"], "too_many_wrong_actions", 1),
    ("baseline", QUERY_ILLEGAL_LEGAL, ["get_current_board", "illegal_move", "move_made"], "move_made", 2),
    ("no_legal_moves", QUERY_ILLEGAL_LEGAL, ["get_current_board", "illegal_move", "move_made"], "move_made", 2),
    ("only_make_move", QUERY_ILLEGAL_LEGAL, ["unparsable", "illegal_move", "move_made"], "move_made", 1),
], ids=["baseline-wrong-then-move", "no-legal-moves-wrong-then-move", "only-make-move-wrong-then-move",
        "baseline-queries-to-cap", "no-legal-moves-queries-to-cap", "only-make-move-queries-to-cap",
        "baseline-query-illegal-legal", "no-legal-moves-query-illegal-legal",
        "only-make-move-query-illegal-legal"])
def test_run_ply_exact_conversation(name, replies, outcomes, ending, turns):
    seen = []

    def reply_fn(messages):
        seen.append([dict(m) for m in messages])
        return replies[len(seen) - 1]

    transcript = run_ply(rules.Board.initial(), reply_fn, PLY_LIMITS, VARIANTS[name])

    answers = [ILLEGAL_E2E5 if o == "illegal_move" else ANSWER[name].get(o) for o in outcomes]
    prompts_seen = [OPENING[name]] + answers[:-1]
    expected_messages = []
    conversation = [{"role": "user", "content": OPENING[name]}]
    for reply, answer in zip(replies, answers):
        expected_messages.append(list(conversation))
        conversation += [{"role": "assistant", "content": reply}, {"role": "user", "content": answer}]
    assert seen == expected_messages
    assert transcript == PlyTranscript(
        exchanges=[Exchange(p, r, o) for p, r, o in zip(prompts_seen, replies, outcomes)],
        outcome=ending,
        move="e2e4" if ending == "move_made" else None,
        turns_used=turns,
        failed_attempts=outcomes.count("unparsable") + outcomes.count("illegal_move"),
        board_queries=outcomes.count("get_current_board"),
        legal_move_queries=outcomes.count("get_legal_moves"),
        illegal_move_attempts=outcomes.count("illegal_move"),
        unparsable_replies=outcomes.count("unparsable"),
    )
