"""Player kinds: random agent, UCI engines, chat endpoints, MoA, scripts.

Endpoint clients speak the de-facto open chat-completion wire shape: POST
{base_url}/chat/completions with a model name and role/content messages,
reading the assistant text from choices[0].message.content. Engines speak
classic UCI over a child-process pipe. Any failure that is not a chess
outcome (timeout, transport, crashed engine) surfaces as ModelError with a
machine-readable reason; callers never see a fabricated reply.
"""
from __future__ import annotations

import functools
import itertools
import os
import re
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import requests

from . import prompts, rules


class ModelError(Exception):
    """A player failed outside the game: timeout, transport, engine fault."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


# ---------------------------------------------------------------------------
# Player kinds. A player is frozen and shared by every game of a cell; play()
# owns one game's resources (an engine session, a place in a script) and
# yields that game's function: reply(messages) for dialog players,
# choose_move(board, rng) for movers. Only dialog players, which are always
# the measured subject, append token usage to `usage`. describe() is the
# player's entry in a logged game config.


def _next_or_fail(items, reason: str, detail: str):
    try:
        return next(items)
    except StopIteration:
        raise ModelError(reason, detail) from None


# ---------------------------------------------------------------------------
# Random and scripted players.


def random_move(board, rng) -> rules.Move:
    """Uniform draw from the legal moves; deterministic given rng state."""
    moves = rules.legal_moves(board)
    if not moves:
        raise ValueError("no legal moves to choose from")
    return rng.choice(moves)


@dataclass(frozen=True)
class RandomSpec:
    is_dialog = False

    @contextmanager
    def play(self, usage):
        yield random_move

    def describe(self):
        return {"kind": "random"}


@dataclass(frozen=True)
class ScriptedDialogSpec:
    """Canned dialog replies, for harness tests and offline smoke runs."""

    replies: tuple
    cycle: bool = True
    is_dialog = True

    def __post_init__(self):  # a wrong-shaped script is refused before any game starts
        for reply in self.replies:
            if not isinstance(reply, str):
                raise TypeError(f"scripted replies must be text, not {type(reply).__name__}")
        if not isinstance(self.cycle, bool):
            raise TypeError(f"cycle must be true or false, not {type(self.cycle).__name__}")

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

    def __post_init__(self):
        for move in self.moves:
            if not isinstance(move, str):
                raise TypeError(f"scripted moves must be text, not {type(move).__name__}")
            rules.Move.from_uci(move)  # a MoveParseError names the bad move

    @contextmanager
    def play(self, usage):
        moves = iter(self.moves)
        yield lambda board, rng: rules.Move.from_uci(
            _next_or_fail(moves, "engine", "scripted moves exhausted")
        )

    def describe(self):
        return {"kind": "scripted_mover", "moves": list(self.moves)}


# ---------------------------------------------------------------------------
# Chat-completion endpoints.


@dataclass(frozen=True)
class LLMEndpointConfig:
    """One chat-completion endpoint.

    temperature=None omits the field entirely, for endpoints that reject it.
    Timeouts are never retried; max_retries applies to transport errors only.
    The bearer token is read from the environment variable named by
    api_key_env, never stored in configs or logs.
    """

    base_url: str
    model: str
    temperature: float | None = 0.3
    top_p: float = 1.0
    reasoning_effort: str | None = None  # low | medium | high
    timeout_s: float = 600.0
    max_retries: int = 0
    api_key_env: str = "AGENTCHESS_API_KEY"
    is_dialog = True

    def __post_init__(self):
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")

    @contextmanager
    def play(self, usage):
        yield functools.partial(llm_reply, cfg=self, usage_log=usage)

    def describe(self):
        return {
            "kind": "endpoint",
            "model": self.model,
            "base_url": self.base_url,
            "reasoning_effort": self.reasoning_effort,
        }


_THINK_BLOCK = re.compile(r"<think(?:ing)?>.*?</think(?:ing)?>", re.DOTALL)


def strip_thinking(text: str) -> str:
    """Drop explicit thinking sections so only the final answer is parsed.

    Handles both well-formed <think>...</think> blocks and the bare trailing
    </think> some chat templates emit when the opening tag lives in the
    prompt template.
    """
    text = _THINK_BLOCK.sub("", text)
    for tag in ("</think>", "</thinking>"):
        if tag in text:
            text = text.rsplit(tag, 1)[1]
    return text.strip()


def llm_reply(messages, cfg: LLMEndpointConfig, usage_log: list | None = None) -> str:
    """One chat-completion round trip; returns the assistant's answer text.

    Raises ModelError("timeout" | "transport" | "malformed"). When the
    response reports token usage and usage_log is given, the usage dict is
    appended to it.
    """
    if not messages:
        raise ValueError("empty chat transcript")
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    payload = {"model": cfg.model, "messages": list(messages), "top_p": cfg.top_p}
    if cfg.temperature is not None:
        payload["temperature"] = cfg.temperature
    if cfg.reasoning_effort is not None:
        payload["reasoning_effort"] = cfg.reasoning_effort
    headers = {}
    token = os.environ.get(cfg.api_key_env, "") if cfg.api_key_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last_error: ModelError | None = None
    for _ in range(cfg.max_retries + 1):
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=cfg.timeout_s)
        except requests.Timeout as exc:
            raise ModelError("timeout", str(exc)) from exc
        except requests.RequestException as exc:
            last_error = ModelError("transport", str(exc))
            continue
        if response.status_code != 200:
            last_error = ModelError("transport", f"HTTP {response.status_code}")
            continue
        try:
            body = response.json()
            message = body["choices"][0]["message"]
            content = message["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ModelError("malformed", str(exc)) from exc
        if not isinstance(content, str):
            raise ModelError("malformed", "assistant content is not text")
        if usage_log is not None and isinstance(body.get("usage"), dict):
            usage_log.append(body["usage"])
        return strip_thinking(content)
    assert last_error is not None
    raise last_error


# ---------------------------------------------------------------------------
# Mixture of Agents.


@dataclass(frozen=True)
class MoAConfig:
    """Proposer endpoints plus the synthesizer that merges their candidates."""

    proposers: tuple
    synthesizer: LLMEndpointConfig
    is_dialog = True

    @contextmanager
    def play(self, usage):
        reply_fn = functools.partial(llm_reply, usage_log=usage)
        yield lambda messages: moa_reply(messages, self, reply_fn)

    def describe(self):
        return {
            "kind": "moa",
            "proposers": [p.model for p in self.proposers],
            "synthesizer": self.synthesizer.model,
        }


def moa_reply(messages, cfg: MoAConfig, reply_fn=llm_reply) -> str:
    """Query every proposer, bundle the labeled candidates, synthesize.

    A failed proposer contributes an explicit "[no response]" block instead
    of aborting; only a synthesizer failure raises. Issues exactly
    len(proposers) + 1 endpoint calls.
    """
    if not cfg.proposers:
        raise ValueError("MoA needs at least one proposer")
    blocks = []
    for index, proposer in enumerate(cfg.proposers, start=1):
        try:
            candidate = reply_fn(list(messages), proposer)
        except ModelError:
            candidate = "[no response]"
        blocks.append(f"Model {index}:\n{candidate}")
    synth_messages = [
        {"role": "system", "content": prompts.MOA_SYNTHESIZER_PROMPT},
        *[dict(m) for m in messages],
        {"role": "user", "content": "\n\n".join(blocks)},
    ]
    return reply_fn(synth_messages, cfg.synthesizer)


# ---------------------------------------------------------------------------
# UCI engines.


HANDSHAKE_TIMEOUT_S = 10.0  # launch to `readyok`; an engine still silent then is killed


@dataclass(frozen=True)
class EngineConfig:
    """How to launch and drive one UCI engine for game play.

    The skill option name is engine-specific ("Skill" for the Komodo family,
    "Skill Level" for Stockfish); per-move search is wall-clock bounded by
    default so desk runs stay predictable.
    """

    command: tuple
    skill: int | None = None
    skill_option: str = "Skill"
    movetime_ms: int | None = 1000
    depth: int | None = None
    is_dialog = False

    @contextmanager
    def play(self, usage):
        with spawn_engine(self) as engine:
            yield lambda board, rng: engine_move(board, engine)

    def describe(self):
        return {"kind": "engine", "command": list(self.command), "skill": self.skill}


class UciEngine:
    """A line-oriented UCI session over a child process.

    One session belongs to one game (or one analysis worker) at a time;
    protocol violations and engine death raise ModelError("engine").
    """

    def __init__(self, command, options=(), movetime_ms=None, depth=None):
        self.command = list(command)
        self.options = list(options)
        self.movetime_ms = movetime_ms
        self.depth = depth
        self._proc: subprocess.Popen | None = None

    def start(self) -> "UciEngine":
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise ModelError("engine", f"cannot launch {self.command[0]}: {exc}") from exc
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        killer = threading.Timer(HANDSHAKE_TIMEOUT_S, self._proc.kill)
        killer.start()
        try:
            self._send("uci")
            while self._readline() != "uciok":
                pass
            for name, value in self.options:
                self._send(f"setoption name {name} value {value}")
            self._wait_ready()
        except ModelError:
            self.quit()  # reap an engine that fails its handshake
            if time.monotonic() >= deadline:
                raise ModelError("engine", f"no handshake in {HANDSHAKE_TIMEOUT_S:g} s") from None
            raise
        finally:
            killer.cancel()
        return self

    def _send(self, line: str) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None:
            raise ModelError("engine", "engine not started")
        try:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ModelError("engine", f"engine pipe closed: {exc}") from exc

    def _readline(self) -> str:
        proc = self._proc
        if proc is None or proc.stdout is None:
            raise ModelError("engine", "engine not started")
        line = proc.stdout.readline()
        if line == "":
            raise ModelError("engine", "engine terminated unexpectedly")
        return line.strip()

    def _wait_ready(self) -> None:
        self._send("isready")
        while self._readline() != "readyok":
            pass

    def new_game(self) -> None:
        """Start a new game: the engine drops what it learnt from earlier searches."""
        self._send("ucinewgame")
        self._wait_ready()

    def _search(self, fen: str, go: str) -> tuple:
        """Search from `fen` with the `go` line; return (last info score or None, bestmove tokens)."""
        self._send(f"position fen {fen}")
        self._send(go)
        score = None
        while True:
            tokens = self._readline().split()
            if not tokens:
                continue
            if tokens[0] == "info" and "score" in tokens:
                at = tokens.index("score")
                try:
                    score = (tokens[at + 1], int(tokens[at + 2]))
                except (IndexError, ValueError):
                    pass
            elif tokens[0] == "bestmove":
                return score, tokens

    def bestmove(self, fen: str) -> str:
        """Search from `fen` and return the engine's move text."""
        go = "go"
        if self.depth is not None:
            go += f" depth {self.depth}"
        if self.movetime_ms is not None:
            go += f" movetime {self.movetime_ms}"
        _, tokens = self._search(fen, go)
        if len(tokens) < 2:
            raise ModelError("engine", f"bad bestmove line: {tokens[0]!r}")
        return tokens[1]

    def evaluate(self, fen: str, depth: int):
        """Search from `fen`, returning ((kind, value), best move text or None).

        kind is "cp" or "mate", from the side to move's perspective as UCI
        defines it; value comes from the last info line of the search.
        """
        score, tokens = self._search(fen, f"go depth {depth}")
        if score is None or score[0] not in ("cp", "mate"):
            raise ModelError("engine", f"search returned no score for {fen}")
        best = tokens[1] if len(tokens) > 1 else "(none)"
        return score, None if best == "(none)" else best

    def quit(self) -> None:
        """Ask the engine to exit (killing it after 5 s), reap it, close its pipes."""
        if self._proc is None:
            return
        try:
            self._send("quit")
        except ModelError:
            pass
        proc, self._proc = self._proc, None
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except OSError:  # input still buffered for an engine that is gone
            pass

    def __enter__(self) -> "UciEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.quit()


def spawn_engine(config: EngineConfig) -> UciEngine:
    engine = UciEngine(
        config.command,
        options=[] if config.skill is None else [(config.skill_option, config.skill)],
        movetime_ms=config.movetime_ms,
        depth=config.depth,
    )
    return engine.start()


def engine_move(board, engine: UciEngine) -> rules.Move:
    """Ask a running engine for a move and insist it is legal."""
    text = engine.bestmove(rules.render_fen(board))
    try:
        move = rules.Move.from_uci(text)
    except rules.MoveParseError as exc:
        raise ModelError("engine", f"unparsable bestmove {text!r}") from exc
    if move not in rules.legal_moves(board):
        raise ModelError("engine", f"illegal bestmove {text!r} in {rules.render_fen(board)}")
    return move

