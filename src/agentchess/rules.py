"""Chess position model: FEN codec, legal move generation, terminations.

Everything here is a pure function over immutable values, so positions can
be shared freely between concurrent games. Draw detection covers stalemate,
insufficient material, the 75-move rule and fivefold repetition; the
100-move game cap is the match runner's business, not a chess rule.

Out of scope by design: SAN/PGN notation, variants, and any notion of move
quality (that lives in the analysis pipeline).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

WHITE = "w"
BLACK = "b"

FILE_NAMES = "abcdefgh"
PROMOTION_PIECES = "qrbn"

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

# GameStatus kinds.
ONGOING = "ongoing"
CHECKMATE = "checkmate"
STALEMATE = "stalemate"
INSUFFICIENT_MATERIAL = "insufficient_material"
SEVENTYFIVE_MOVES = "seventyfive_moves"
FIVEFOLD_REPETITION = "fivefold_repetition"

_UNICODE_GLYPHS = {
    "P": "♙", "N": "♘", "B": "♗", "R": "♖", "Q": "♕", "K": "♔",
    "p": "♟", "n": "♞", "b": "♝", "r": "♜", "q": "♛", "k": "♚",
}
_UNICODE_EMPTY = "⭘"


class FenError(ValueError):
    """FEN text that does not describe a usable position."""


class MoveParseError(ValueError):
    """Text that does not match the UCI move grammar."""


class IllegalMoveError(ValueError):
    """A move that is not legal in the given position.

    The message deliberately matches the wire format the dialog layer quotes
    back to the player, so it carries the offending text and the FEN.
    """

    def __init__(self, uci: str, fen: str):
        super().__init__(f"illegal uci: {uci!r} in {fen}")
        self.uci = uci
        self.fen = fen


def opponent(color: str) -> str:
    return BLACK if color == WHITE else WHITE


def square_index(name: str) -> int:
    """Map a square name like "e4" to a 0..63 index (a1=0, h8=63)."""
    if len(name) != 2 or name[0] not in FILE_NAMES or name[1] not in "12345678":
        raise MoveParseError(f"bad square: {name!r}")
    return (int(name[1]) - 1) * 8 + FILE_NAMES.index(name[0])


def square_name(sq: int) -> str:
    return FILE_NAMES[sq % 8] + str(sq // 8 + 1)


@dataclass(frozen=True)
class Move:
    """A move in coordinate form; `promotion` is a lowercase piece letter."""

    from_square: int
    to_square: int
    promotion: str | None = None

    def uci(self) -> str:
        text = square_name(self.from_square) + square_name(self.to_square)
        return text + (self.promotion or "")

    @classmethod
    def from_uci(cls, text: str) -> "Move":
        if not 4 <= len(text) <= 5:
            raise MoveParseError(f"bad uci: {text!r}")
        promotion = None
        if len(text) == 5:
            promotion = text[4]
            if promotion not in PROMOTION_PIECES:
                raise MoveParseError(f"bad promotion piece in {text!r}")
        return cls(square_index(text[:2]), square_index(text[2:4]), promotion)


@dataclass(frozen=True)
class Board:
    """A full position. `squares` holds piece letters (a1=index 0) or None.

    `castling` is a subset of "KQkq" in that order; `ep_square` is stored
    only when an en-passant capture is actually legal, so equal boards are
    exactly the positions that repeat for the fivefold rule.
    """

    squares: tuple
    turn: str = WHITE
    castling: str = "KQkq"
    ep_square: int | None = None
    halfmove_clock: int = 0
    fullmove_number: int = 1

    @classmethod
    def initial(cls) -> "Board":
        return parse_fen(START_FEN)


@dataclass(frozen=True)
class GameStatus:
    kind: str
    winner: str | None = None  # set for checkmate only


class PositionHistory:
    """Multiset of positions seen since game start, for repetition counts."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def push(self, board: Board) -> None:
        self._counts[_position_key(board)] += 1

    def count(self, board: Board) -> int:
        return self._counts[_position_key(board)]


def _position_key(board: Board) -> tuple:
    return (board.squares, board.turn, board.castling, board.ep_square)


# ---------------------------------------------------------------------------
# Precomputed geometry. Directions 0-3 are rook rays, 4-7 bishop rays.

_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_KNIGHT_DELTAS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


def _build_tables():
    rays = []
    knight = []
    king = []
    for sq in range(64):
        f, r = sq % 8, sq // 8
        sq_rays = []
        for df, dr in _DIRS:
            ray = []
            nf, nr = f + df, r + dr
            while 0 <= nf < 8 and 0 <= nr < 8:
                ray.append(nr * 8 + nf)
                nf += df
                nr += dr
            sq_rays.append(tuple(ray))
        rays.append(tuple(sq_rays))
        knight.append(tuple(
            (r + dr) * 8 + (f + df)
            for df, dr in _KNIGHT_DELTAS
            if 0 <= f + df < 8 and 0 <= r + dr < 8
        ))
        king.append(tuple(
            (r + dr) * 8 + (f + df)
            for df, dr in _DIRS
            if 0 <= f + df < 8 and 0 <= r + dr < 8
        ))
    return tuple(rays), tuple(knight), tuple(king)


_RAYS, _KNIGHT_TARGETS, _KING_TARGETS = _build_tables()

# _PAWN_SOURCES[color][sq] lists squares from which a pawn of that color
# attacks sq.
def _build_pawn_sources():
    out = {WHITE: [], BLACK: []}
    for sq in range(64):
        f, r = sq % 8, sq // 8
        out[WHITE].append(tuple(
            (r - 1) * 8 + (f + df) for df in (-1, 1)
            if 0 <= f + df < 8 and r - 1 >= 0
        ))
        out[BLACK].append(tuple(
            (r + 1) * 8 + (f + df) for df in (-1, 1)
            if 0 <= f + df < 8 and r + 1 <= 7
        ))
    return {c: tuple(v) for c, v in out.items()}


_PAWN_SOURCES = _build_pawn_sources()
# _PAWN_CAPTURES[color][sq]: the squares a pawn of that color on sq attacks.
_PAWN_CAPTURES = {WHITE: _PAWN_SOURCES[BLACK], BLACK: _PAWN_SOURCES[WHITE]}
_SLIDER_DIRS = {p: dirs for ps, dirs in (("Rr", range(4)), ("Bb", range(4, 8)), ("Qq", range(8)))
                for p in ps}
# Per side: (right, squares that must be empty, king path that must not be
# attacked, king destination). The king starts on the first path square.
_CASTLING = {
    WHITE: (("K", (5, 6), (4, 5, 6), 6), ("Q", (1, 2, 3), (4, 3, 2), 2)),
    BLACK: (("k", (61, 62), (60, 61, 62), 62), ("q", (57, 58, 59), (60, 59, 58), 58)),
}


def _is_attacked(squares, sq: int, by: str) -> bool:
    if by == WHITE:
        pawn, knight, king, bishops, rooks = "P", "N", "K", ("B", "Q"), ("R", "Q")
    else:
        pawn, knight, king, bishops, rooks = "p", "n", "k", ("b", "q"), ("r", "q")
    for src in _PAWN_SOURCES[by][sq]:
        if squares[src] == pawn:
            return True
    for src in _KNIGHT_TARGETS[sq]:
        if squares[src] == knight:
            return True
    for src in _KING_TARGETS[sq]:
        if squares[src] == king:
            return True
    rays = _RAYS[sq]
    for d in range(4):
        for src in rays[d]:
            piece = squares[src]
            if piece is not None:
                if piece in rooks:
                    return True
                break
    for d in range(4, 8):
        for src in rays[d]:
            piece = squares[src]
            if piece is not None:
                if piece in bishops:
                    return True
                break
    return False


def _king_square(squares, color: str) -> int:
    return squares.index("K" if color == WHITE else "k")


# Move codes: (uci_order(from) * 64 + uci_order(to)) * 5 + promotion rank,
# where a square's UCI order is file-major and the promotion ranks are
# none, b, n, q, r, so sorting codes as integers sorts moves by UCI text.
# Swapping file and rank is its own inverse, so one table maps both ways.
_UCI_ORDER = tuple(sq % 8 * 8 + sq // 8 for sq in range(64))
_UCI_ORDER5 = tuple(order * 5 for order in _UCI_ORDER)
_PROMOTIONS = (None, "b", "n", "q", "r")


class _InternedMoves(dict):
    """code -> Move, one shared instance per code, made on first use."""

    def __missing__(self, code: int) -> Move:
        move = self[code] = Move(_UCI_ORDER[code // 320], _UCI_ORDER[code // 5 % 64],
                                 _PROMOTIONS[code % 5])
        return move


_MOVES = _InternedMoves()


def _shift_squares(squares: list, move: Move, turn: str) -> None:
    """Apply `move` to a mutable square list; no validation, no bookkeeping."""
    frm, to = move.from_square, move.to_square
    piece = squares[frm]
    squares[frm] = None
    if piece in ("P", "p"):
        if frm % 8 != to % 8 and squares[to] is None:
            # En passant: the captured pawn sits behind the target square.
            squares[to - (8 if turn == WHITE else -8)] = None
        if move.promotion:
            piece = move.promotion.upper() if turn == WHITE else move.promotion
    elif piece in ("K", "k") and abs(to - frm) == 2:
        if to > frm:  # kingside: rook hops from h-file to f-file
            squares[to - 1] = squares[to + 1]
            squares[to + 1] = None
        else:  # queenside: rook hops from a-file to d-file
            squares[to + 1] = squares[to - 2]
            squares[to - 2] = None
    squares[to] = piece


def _pseudo_moves(squares, turn: str, castling: str, ep_square: int | None):
    """Yield the codes of the pseudo-legal moves, in no particular order."""
    white = turn == WHITE
    pawn, knight, king = ("P", "N", "K") if white else ("p", "n", "k")
    enemy = "pnbrqk" if white else "PNBRQK"
    for sq, piece in enumerate(squares):
        if piece is None or piece in enemy:
            continue
        base = _UCI_ORDER5[sq] * 64
        if piece == pawn:
            step = 8 if white else -8
            one = sq + step
            promos = (1, 2, 3, 4) if one // 8 == (7 if white else 0) else (0,)
            if squares[one] is None:
                for rank in promos:
                    yield base + _UCI_ORDER5[one] + rank
                if sq // 8 == (1 if white else 6) and squares[one + step] is None:
                    yield base + _UCI_ORDER5[one + step]
            for to in _PAWN_CAPTURES[turn][sq]:
                target = squares[to]
                if target is not None and target in enemy:
                    for rank in promos:
                        yield base + _UCI_ORDER5[to] + rank
                elif to == ep_square:
                    yield base + _UCI_ORDER5[to]
        elif piece == knight or piece == king:
            for to in (_KNIGHT_TARGETS if piece == knight else _KING_TARGETS)[sq]:
                target = squares[to]
                if target is None or target in enemy:
                    yield base + _UCI_ORDER5[to]
        else:
            rays = _RAYS[sq]
            for d in _SLIDER_DIRS[piece]:
                for to in rays[d]:
                    target = squares[to]
                    if target is None:
                        yield base + _UCI_ORDER5[to]
                    else:
                        if target in enemy:
                            yield base + _UCI_ORDER5[to]
                        break
    # Castling. Rights are canonical (king and rook on home squares), so only
    # emptiness and the no-check path need testing here.
    them = BLACK if white else WHITE
    for right, empty, path, to in _CASTLING[turn]:
        if right in castling and not any(squares[s] for s in empty) \
                and not any(_is_attacked(squares, s, them) for s in path):
            yield _UCI_ORDER5[path[0]] * 64 + _UCI_ORDER5[to]


def _pin_lines(squares, king_sq: int, turn: str) -> dict:
    """Map each pinned piece of `turn` to the squares it may still move to:
    its ray out of the king square, up to and including the pinner."""
    own = "PNBRQ" if turn == WHITE else "pnbrq"
    sliders = ("rq", "bq") if turn == WHITE else ("RQ", "BQ")
    lines = {}
    for d, ray in enumerate(_RAYS[king_sq]):
        pinned = None
        for i, sq in enumerate(ray):
            piece = squares[sq]
            if piece is None:
                continue
            if pinned is None and piece in own:
                pinned = sq
                continue
            if pinned is not None and piece in sliders[d >= 4]:
                lines[pinned] = ray[:i + 1]
            break
    return lines


def _safe_after(squares, move: Move, turn: str, king_sq: int) -> bool:
    """Make-and-test: is the mover's king unattacked once `move` is made?"""
    scratch = list(squares)
    _shift_squares(scratch, move, turn)
    checked = move.to_square if move.from_square == king_sq else king_sq
    return not _is_attacked(scratch, checked, opponent(turn))


# Positions are immutable and hashable, and one game ply asks for the same
# move list several times (status check, choice, apply validation), so the
# sorted tuple of interned moves is cached per board.
@lru_cache(maxsize=8192)
def _legal_moves_cached(board: Board) -> tuple:
    squares = board.squares
    turn = board.turn
    king_sq = _king_square(squares, turn)
    pseudo = _pseudo_moves(squares, turn, board.castling, board.ep_square)
    if _is_attacked(squares, king_sq, opponent(turn)):
        codes = [code for code in pseudo if _safe_after(squares, _MOVES[code], turn, king_sq)]
    else:
        # Out of check, only three kinds of move can be illegal: king moves
        # onto an attacked square, pinned pieces leaving their line, and en
        # passant (which may uncover the king along a rank). Moves of pawns
        # that could take en passant are made and tested (line None).
        lines = _pin_lines(squares, king_sq, turn)
        if board.ep_square is not None:
            for src in _PAWN_SOURCES[turn][board.ep_square]:
                lines[src] = None
        them = opponent(turn)
        codes = []
        for code in pseudo:
            move = _MOVES[code]
            frm = move.from_square
            if frm == king_sq:
                if _is_attacked(squares, move.to_square, them):
                    continue
            elif frm in lines:
                line = lines[frm]
                if line is None:
                    if not _safe_after(squares, move, turn, king_sq):
                        continue
                elif move.to_square not in line:
                    continue
            codes.append(code)
    codes.sort()
    return tuple([_MOVES[code] for code in codes])


def legal_moves(board: Board) -> list:
    """Legal moves for the side to move, sorted by UCI text."""
    return list(_legal_moves_cached(board))


def in_check(board: Board) -> bool:
    return _is_attacked(board.squares, _king_square(board.squares, board.turn), opponent(board.turn))


def _has_legal_ep_capture(squares, turn: str, ep_square: int) -> bool:
    pawn = "P" if turn == WHITE else "p"
    king_sq = _king_square(squares, turn)
    return any(squares[src] == pawn and _safe_after(squares, Move(src, ep_square), turn, king_sq)
               for src in _PAWN_SOURCES[turn][ep_square])


def _apply_unchecked(board: Board, move: Move) -> Board:
    squares = list(board.squares)
    frm, to = move.from_square, move.to_square
    piece = squares[frm]
    is_pawn = piece in ("P", "p")
    is_capture = squares[to] is not None or (is_pawn and frm % 8 != to % 8)
    _shift_squares(squares, move, board.turn)

    castling = board.castling
    if castling:
        if piece == "K":
            castling = castling.replace("K", "").replace("Q", "")
        elif piece == "k":
            castling = castling.replace("k", "").replace("q", "")
        for touched, right in ((0, "Q"), (7, "K"), (56, "q"), (63, "k")):
            if frm == touched or to == touched:
                castling = castling.replace(right, "")

    ep_square = None
    if is_pawn and abs(to - frm) == 16:
        candidate = (frm + to) // 2
        if _has_legal_ep_capture(squares, opponent(board.turn), candidate):
            ep_square = candidate

    return Board(
        squares=tuple(squares),
        turn=opponent(board.turn),
        castling=castling,
        ep_square=ep_square,
        halfmove_clock=0 if (is_pawn or is_capture) else board.halfmove_clock + 1,
        fullmove_number=board.fullmove_number + (1 if board.turn == BLACK else 0),
    )


def apply_move(board: Board, move: Move) -> Board:
    """Apply a legal move, returning the successor position.

    Raises IllegalMoveError (carrying the UCI text and the current FEN) when
    the move is not in legal_moves(board). The input board is never touched.
    """
    if move not in _legal_moves_cached(board):
        raise IllegalMoveError(move.uci(), render_fen(board))
    return _apply_unchecked(board, move)


def apply_uci(board: Board, text: str) -> Board:
    """apply_move for raw move text; malformed text counts as illegal."""
    try:
        move = Move.from_uci(text)
    except MoveParseError:
        raise IllegalMoveError(text, render_fen(board)) from None
    return apply_move(board, move)


def _insufficient_side(squares, color: str) -> bool:
    own = "PNBRQK" if color == WHITE else "pnbrqk"
    other = "pnbrqk" if color == WHITE else "PNBRQK"
    pieces = [(sq, p) for sq, p in enumerate(squares) if p is not None]
    own_pieces = [(sq, p) for sq, p in pieces if p in own]
    if any(p.upper() in ("P", "R", "Q") for _, p in own_pieces):
        return False
    knights = [p for _, p in own_pieces if p.upper() == "N"]
    bishops = [(sq, p) for sq, p in own_pieces if p.upper() == "B"]
    if knights:
        # A lone knight cannot mate unless the opponent has blockable material.
        if len(own_pieces) > 2:
            return False
        return all(p.upper() in ("K", "Q") for _, p in pieces if p in other)
    if bishops:
        all_bishop_squares = [sq for sq, p in pieces if p.upper() == "B"]
        same_color = len({(sq // 8 + sq % 8) % 2 for sq in all_bishop_squares}) == 1
        return same_color and not any(
            p.upper() in ("P", "N") for _, p in pieces if p in other
        )
    return True


_MATING_MATERIAL = frozenset("PpRrQq")


def is_insufficient_material(board: Board) -> bool:
    if not _MATING_MATERIAL.isdisjoint(board.squares):
        return False
    return _insufficient_side(board.squares, WHITE) and _insufficient_side(board.squares, BLACK)


def game_status(board: Board, history: PositionHistory | None = None) -> GameStatus:
    """Termination state of a position, exactly one kind per position.

    The 75-move rule fires at halfmove_clock >= 150, fivefold repetition at a
    count of 5 in `history` (which must include the current position).
    """
    if not _legal_moves_cached(board):
        if in_check(board):
            return GameStatus(CHECKMATE, winner=opponent(board.turn))
        return GameStatus(STALEMATE)
    if is_insufficient_material(board):
        return GameStatus(INSUFFICIENT_MATERIAL)
    if board.halfmove_clock >= 150:
        return GameStatus(SEVENTYFIVE_MOVES)
    if history is not None and history.count(board) >= 5:
        return GameStatus(FIVEFOLD_REPETITION)
    return GameStatus(ONGOING)


def perft(board: Board, depth: int) -> int:
    """Leaf count of the legal-move tree; the move generator's test oracle."""
    if depth <= 0:
        return 1
    moves = _legal_moves_cached(board)
    if depth == 1:
        return len(moves)
    return sum(perft(_apply_unchecked(board, move), depth - 1) for move in moves)


# ---------------------------------------------------------------------------
# FEN and board rendering.


def parse_fen(text: str) -> Board:
    """Parse a FEN string, validating shape, kings, castling and en passant.

    Castling rights whose king or rook is off its home square are dropped.
    An en-passant square must be empty with a pawn of the side that just
    moved in front of it, and is kept only when a capture is actually legal,
    so rendering the result gives the canonical form of the input.
    """
    fields = text.split()
    if len(fields) != 6:
        raise FenError(f"expected 6 FEN fields, got {len(fields)}")
    placement, turn, castling, ep_field, halfmove, fullmove = fields

    ranks = placement.split("/")
    if len(ranks) != 8:
        raise FenError(f"expected 8 ranks, got {len(ranks)}")
    squares: list = [None] * 64
    for rank_idx, rank_text in enumerate(ranks):
        r = 7 - rank_idx
        f = 0
        for ch in rank_text:
            if ch.isdigit():
                if ch == "0" or ch == "9":
                    raise FenError(f"bad skip count {ch!r} in rank {rank_text!r}")
                f += int(ch)
            elif ch in "PNBRQKpnbrqk":
                if f > 7:
                    raise FenError(f"rank {rank_text!r} overflows")
                if ch in ("P", "p") and r in (0, 7):
                    raise FenError(f"pawn on back rank in {placement!r}")
                squares[r * 8 + f] = ch
                f += 1
            else:
                raise FenError(f"bad piece letter {ch!r}")
        if f != 8:
            raise FenError(f"rank {rank_text!r} has {f} files")
    for king in ("K", "k"):
        if squares.count(king) != 1:
            raise FenError(f"expected exactly one {king!r}, got {squares.count(king)}")

    if turn not in (WHITE, BLACK):
        raise FenError(f"bad side to move {turn!r}")

    if castling != "-" and (not castling or any(c not in "KQkq" for c in castling)
                            or len(set(castling)) != len(castling)):
        raise FenError(f"bad castling field {castling!r}")
    rights = "" if castling == "-" else castling
    cleaned = ""
    for right, king_sq, rook_sq, king_pc, rook_pc in (
        ("K", 4, 7, "K", "R"), ("Q", 4, 0, "K", "R"),
        ("k", 60, 63, "k", "r"), ("q", 60, 56, "k", "r"),
    ):
        if right in rights and squares[king_sq] == king_pc and squares[rook_sq] == rook_pc:
            cleaned += right

    ep_square = None
    if ep_field != "-":
        try:
            ep_square = square_index(ep_field)
        except MoveParseError:
            raise FenError(f"bad en-passant field {ep_field!r}") from None
        expected_rank = 5 if turn == WHITE else 2
        if ep_square // 8 != expected_rank:
            raise FenError(f"en-passant square {ep_field!r} inconsistent with side to move")
        pushed = ep_square - 8 if turn == WHITE else ep_square + 8
        if squares[ep_square] is not None or squares[pushed] != ("p" if turn == WHITE else "P"):
            raise FenError(f"en-passant square {ep_field!r} has no pawn that just passed it")
        if not _has_legal_ep_capture(squares, turn, ep_square):
            ep_square = None

    try:
        halfmove_clock = int(halfmove)
        fullmove_number = int(fullmove)
    except ValueError:
        raise FenError(f"bad move counters {halfmove!r} {fullmove!r}") from None
    if halfmove_clock < 0 or fullmove_number < 1:
        raise FenError(f"bad move counters {halfmove!r} {fullmove!r}")

    return Board(
        squares=tuple(squares),
        turn=turn,
        castling=cleaned,
        ep_square=ep_square,
        halfmove_clock=halfmove_clock,
        fullmove_number=fullmove_number,
    )


def render_fen(board: Board) -> str:
    """Canonical FEN for a position; inverse of parse_fen."""
    rank_texts = []
    for r in range(7, -1, -1):
        text = ""
        empties = 0
        for f in range(8):
            piece = board.squares[r * 8 + f]
            if piece is None:
                empties += 1
            else:
                if empties:
                    text += str(empties)
                    empties = 0
                text += piece
        if empties:
            text += str(empties)
        rank_texts.append(text)
    return " ".join([
        "/".join(rank_texts),
        board.turn,
        board.castling or "-",
        square_name(board.ep_square) if board.ep_square is not None else "-",
        str(board.halfmove_clock),
        str(board.fullmove_number),
    ])


def render_board(board: Board, style: str = "unicode") -> str:
    """Render a position as text: "unicode", "ascii" or "fen".

    Grid styles print rank 8 first. ASCII uses piece letters with "." for
    empty squares; unicode uses chess glyphs with a circle placeholder.
    """
    if style == "fen":
        return render_fen(board)
    if style not in ("unicode", "ascii"):
        raise ValueError(f"unknown board style {style!r}")
    lines = []
    for r in range(7, -1, -1):
        cells = []
        for f in range(8):
            piece = board.squares[r * 8 + f]
            if style == "ascii":
                cells.append(piece if piece is not None else ".")
            else:
                cells.append(_UNICODE_GLYPHS[piece] if piece is not None else _UNICODE_EMPTY)
        lines.append(" ".join(cells))
    return "\n".join(lines)
