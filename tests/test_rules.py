from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchess import rules
from agentchess.rules import (
    Board,
    FenError,
    IllegalMoveError,
    Move,
    PositionHistory,
    apply_move,
    apply_uci,
    game_status,
    legal_moves,
    parse_fen,
    perft,
    render_board,
    render_fen,
)

# The position quoted in the harness's illegal-move reflection message.
REFLECTION_FEN = "r1bqk2r/pppp1ppp/1N2n1P1/4pKb1/8/P4Q1N/1PPPP1R1/R1B2B2 b kq - 12 25"

# Reference node counts for the standard move-generator test positions,
# as published for established engines (chessprogramming perft results).
PERFT_CASES = [
    (rules.START_FEN, [20, 400, 8902, 197281]),
    ("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1", [48, 2039, 97862]),
    ("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1", [14, 191, 2812, 43238]),
    ("r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1", [6, 264, 9467]),
    ("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8", [44, 1486, 62379]),
    ("r4rk1/1pp1qppp/p1np1n2/2b1p1B1/2B1P1b1/P1NP1N2/1PP1QPPP/R4RK1 w - - 0 10", [46, 2079, 89890]),
]


def test_parse_fen_initial_position():
    board = parse_fen(rules.START_FEN)
    assert board.turn == rules.WHITE
    assert board.castling == "KQkq"
    assert board.ep_square is None
    assert board.halfmove_clock == 0
    assert board.fullmove_number == 1
    assert board.squares[4] == "K"
    assert board.squares[60] == "k"


def test_parse_fen_reflection_position():
    board = parse_fen(REFLECTION_FEN)
    assert board.turn == rules.BLACK
    assert board.halfmove_clock == 12
    assert board.fullmove_number == 25
    assert board.castling == "kq"


@pytest.mark.parametrize(
    "bad",
    [
        "8/8/8/8 w - - 0 1",  # wrong rank count
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0",  # missing field
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNX w KQkq - 0 1",  # bad letter
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1R w KQkq - 0 1",  # 9 files
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR x KQkq - 0 1",  # bad turn
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KKqk - 0 1",  # dup right
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e9 0 1",  # bad square
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e4 0 1",  # ep off rank 3/6
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - -1 1",  # bad clock
        "8/8/8/8/8/8/8/8 w - - 0 1",  # no kings
        "kk6/8/8/8/8/8/8/K7 w - - 0 1",  # two black kings
        "Pk6/8/8/8/8/8/8/K7 w - - 0 1",  # pawn on rank 8
        "rnbqkbnr/ppp1pppp/3N4/3pP3/8/8/PPPP1PPP/R1BQKBNR w KQkq d6 0 3",  # ep square occupied
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR b KQkq e3 0 1",  # no pawn passed e3
    ],
)
def test_parse_fen_rejects_malformed_input(bad):
    with pytest.raises(FenError):
        parse_fen(bad)


def test_render_fen_round_trips_fixed_positions():
    for fen in (rules.START_FEN, REFLECTION_FEN):
        assert render_fen(parse_fen(fen)) == fen


def test_ep_field_emitted_only_when_capture_is_legal():
    # After 1. e4 from the start no black pawn can take on e3.
    board = apply_uci(Board.initial(), "e2e4")
    assert render_fen(board) == "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1"
    assert board.ep_square is None
    # With a black pawn on d4 the same push is capturable, so e3 shows.
    setup = parse_fen("rnbqkbnr/ppp1pppp/8/8/3p4/8/PPPPPPPP/RNBQKBNR w KQkq - 0 3")
    after = apply_uci(setup, "e2e4")
    assert render_fen(after).split()[3] == "e3"
    assert "d4e3" in [m.uci() for m in legal_moves(after)]


def test_parse_fen_drops_dead_ep_square():
    fen = "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1"
    board = parse_fen(fen)
    assert board.ep_square is None
    assert render_fen(board).split()[3] == "-"


def test_parse_fen_drops_unusable_castling_rights():
    fen = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1 w KQkq - 0 1"  # no h1 rook
    assert parse_fen(fen).castling == "Qkq"


def test_legal_moves_start_position():
    moves = [m.uci() for m in legal_moves(Board.initial())]
    assert len(moves) == 20
    assert "e2e4" in moves
    assert "g1f3" in moves
    assert moves == sorted(moves)


def test_legal_moves_empty_when_mated():
    fools = Board.initial()
    for uci in ("f2f3", "e7e5", "g2g4", "d8h4"):
        fools = apply_uci(fools, uci)
    assert legal_moves(fools) == []


def test_apply_move_start_e2e4():
    board = Board.initial()
    after = apply_uci(board, "e2e4")
    assert after.turn == rules.BLACK
    assert after.fullmove_number == 1
    assert after.halfmove_clock == 0
    # The input board is untouched.
    assert render_fen(board) == rules.START_FEN


def test_apply_move_rejects_illegal_pawn_jump():
    with pytest.raises(IllegalMoveError) as exc:
        apply_uci(Board.initial(), "e2e5")
    assert exc.value.uci == "e2e5"
    assert exc.value.fen == rules.START_FEN
    assert str(exc.value) == f"illegal uci: 'e2e5' in {rules.START_FEN}"


def test_apply_move_rejects_reflection_fixture_move():
    board = parse_fen(REFLECTION_FEN)
    with pytest.raises(IllegalMoveError) as exc:
        apply_uci(board, "b6c5")
    assert str(exc.value) == f"illegal uci: 'b6c5' in {REFLECTION_FEN}"


def test_apply_uci_rejects_garbage_text():
    with pytest.raises(IllegalMoveError) as exc:
        apply_uci(Board.initial(), "banana")
    assert exc.value.uci == "banana"


def test_castling_and_promotion_round_trip():
    board = parse_fen("r3k2r/8/8/8/8/8/6P1/R3K2R w KQkq - 0 1")
    ucis = [m.uci() for m in legal_moves(board)]
    assert "e1g1" in ucis and "e1c1" in ucis
    after = apply_uci(board, "e1g1")
    assert after.squares[rules.square_index("f1")] == "R"
    assert after.castling == "kq"
    # One promotion entry per target piece.
    promo = parse_fen("k7/6P1/8/8/8/8/8/K7 w - - 0 1")
    promos = [m.uci() for m in legal_moves(promo) if m.from_square == rules.square_index("g7")]
    assert promos == ["g7g8b", "g7g8n", "g7g8q", "g7g8r"]
    queened = apply_uci(promo, "g7g8q")
    assert queened.squares[rules.square_index("g8")] == "Q"


def test_game_status_fools_mate():
    board = Board.initial()
    history = PositionHistory()
    history.push(board)
    for uci in ("f2f3", "e7e5", "g2g4", "d8h4"):
        board = apply_uci(board, uci)
        history.push(board)
    status = game_status(board, history)
    assert status.kind == rules.CHECKMATE
    assert status.winner == rules.BLACK


def test_game_status_stalemate():
    board = parse_fen("k7/8/1Q6/8/8/8/8/K7 b - - 0 1")
    status = game_status(board)
    assert status.kind == rules.STALEMATE
    assert status.winner is None


@pytest.mark.parametrize(
    "fen,expected",
    [
        ("k7/8/8/8/8/8/8/K7 w - - 0 1", rules.INSUFFICIENT_MATERIAL),
        ("k7/8/8/8/8/8/8/KB6 w - - 0 1", rules.INSUFFICIENT_MATERIAL),
        ("k7/8/8/8/8/8/8/KN6 w - - 0 1", rules.INSUFFICIENT_MATERIAL),
        ("kb6/8/8/8/8/8/8/KB6 w - - 0 1", rules.ONGOING),  # opposite-colored bishops
        ("k7/8/8/8/8/8/8/KR6 w - - 0 1", rules.ONGOING),
        (rules.START_FEN, rules.ONGOING),
    ],
)
def test_game_status_material(fen, expected):
    assert game_status(parse_fen(fen)).kind == expected


def test_game_status_same_colored_bishops_draw():
    # c1 and f4 are both dark squares.
    fen = "k7/8/8/8/5b2/8/8/K1b5 w - - 0 1"
    assert game_status(parse_fen(fen)).kind == rules.INSUFFICIENT_MATERIAL


def test_game_status_seventyfive_moves():
    board = parse_fen("k7/8/8/8/8/8/8/K6R w - - 150 80")
    assert game_status(board).kind == rules.SEVENTYFIVE_MOVES


def test_game_status_fivefold_repetition():
    board = Board.initial()
    history = PositionHistory()
    history.push(board)
    shuffle = ("g1f3", "g8f6", "f3g1", "f6g8")
    for _ in range(4):
        for uci in shuffle:
            board = apply_uci(board, uci)
            history.push(board)
    assert history.count(board) == 5
    assert game_status(board, history).kind == rules.FIVEFOLD_REPETITION


@pytest.mark.parametrize("fen,expected", PERFT_CASES)
def test_perft_reference_positions(fen, expected):
    board = parse_fen(fen)
    for depth, nodes in enumerate(expected, start=1):
        assert perft(board, depth) == nodes, f"{fen} depth {depth}"


def test_perft_depth_five_with_en_passant_rank_pin():
    # Published count. After e2e4 or g2g4, fxe3 or fxg3 en passant would
    # empty the fourth rank between the b4 rook and the h4 king.
    assert perft(parse_fen(PERFT_CASES[2][0]), 5) == 674624


# sha256 of the legal UCI lists over the 1,000 playout positions, in order,
# as the copy-and-test generator produced them. It pins legality and the
# sort order on the checks, pins and en-passant captures that playouts reach.
PLAYOUT_LEGAL_MOVES_SHA256 = "388ac21ec21104bb00c8fb1b37ae42528045ed4b469dc5b4df38d8f12b111af5"


def test_legal_moves_digest_over_playout_positions(playout_positions):
    digest = hashlib.sha256()
    for board in playout_positions:
        digest.update((" ".join(m.uci() for m in legal_moves(board)) + "\n").encode())
    assert digest.hexdigest() == PLAYOUT_LEGAL_MOVES_SHA256


def test_perft_depth_zero_and_one():
    board = Board.initial()
    assert perft(board, 0) == 1
    assert perft(board, 1) == len(legal_moves(board))


def test_render_board_ascii_start():
    lines = render_board(Board.initial(), "ascii").split("\n")
    assert len(lines) == 8
    assert lines[0] == "r n b q k b n r"
    assert lines[7] == "R N B Q K B N R"
    assert lines[3] == ". . . . . . . ."


def test_render_board_ascii_empty_squares():
    lines = render_board(parse_fen("K6k/8/8/8/8/8/8/8 w - - 0 1"), "ascii").split("\n")
    assert lines[0] == "K . . . . . . k"
    assert all(line == ". . . . . . . ." for line in lines[1:])


def test_render_board_unicode_start():
    lines = render_board(Board.initial(), "unicode").split("\n")
    assert lines[0] == "♜ ♞ ♝ ♛ ♚ ♝ ♞ ♜"
    assert lines[7] == "♖ ♘ ♗ ♕ ♔ ♗ ♘ ♖"
    assert set(lines[3]) == {"⭘", " "}


def test_render_board_fen_style():
    assert render_board(Board.initial(), "fen") == rules.START_FEN


@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.sampled_from([None, "q", "r", "b", "n"]),
)
def test_move_uci_round_trip(frm, to, promo):
    move = Move(frm, to, promo)
    assert Move.from_uci(move.uci()) == move


@settings(max_examples=200)
@given(st.text(max_size=6))
def test_move_from_uci_never_crashes(text):
    try:
        move = Move.from_uci(text)
    except rules.MoveParseError:
        return
    assert move.uci() == text.lower() or move.uci() == text


def test_fen_round_trip_over_random_playouts(playout_positions):
    for board in playout_positions:
        assert parse_fen(render_fen(board)) == board


def test_legality_closure_over_sampled_positions(playout_positions):
    rng = random.Random(7)
    for board in rng.sample(playout_positions, 60):
        moves = legal_moves(board)
        legal_set = {m.uci() for m in moves}
        for move in moves:
            apply_move(board, move)  # must not raise
        for _ in range(10):
            candidate = Move(rng.randrange(64), rng.randrange(64))
            if candidate.uci() in legal_set:
                continue
            with pytest.raises(IllegalMoveError):
                apply_move(board, candidate)


def test_status_matches_move_availability(playout_positions):
    for board in playout_positions:
        kind = game_status(board).kind
        if legal_moves(board):
            assert kind not in (rules.CHECKMATE, rules.STALEMATE)
        else:
            assert kind in (rules.CHECKMATE, rules.STALEMATE)


def test_apply_never_mutates_input(playout_positions):
    rng = random.Random(11)
    for board in rng.sample(playout_positions, 40):
        moves = legal_moves(board)
        if not moves:
            continue
        before = render_fen(board)
        apply_move(board, rng.choice(moves))
        assert render_fen(board) == before
