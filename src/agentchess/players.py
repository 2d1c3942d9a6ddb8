"""Move and reply providers: random agent, UCI engines, chat endpoints, MoA.

Endpoint clients speak the de-facto open chat-completion wire shape: POST
{base_url}/chat/completions with a model name and role/content messages,
reading the assistant text from choices[0].message.content. Engines speak
classic UCI over a child-process pipe. Any failure that is not a chess
outcome (timeout, transport, crashed engine) surfaces as ModelError with a
machine-readable reason; callers never see a fabricated reply.
"""
from __future__ import annotations

import os
import re
import subprocess
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
# Random agent.


def random_move(board, rng) -> rules.Move:
    """Uniform draw from the legal moves; deterministic given rng state."""
    moves = rules.legal_moves(board)
    if not moves:
        raise ValueError("no legal moves to choose from")
    return rng.choice(moves)


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

    def __post_init__(self):
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")


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


class UciEngine:
    """A line-oriented UCI session over a child process.

    One session belongs to one game (or one analysis worker) at a time;
    protocol violations and engine death raise ModelError("engine").
    """

    def __init__(self, command, options=(), movetime_ms=None, depth=None):
        if isinstance(command, str):
            command = [command]
        self.command = list(command)
        self.options = list(options)
        self.movetime_ms = movetime_ms
        self.depth = depth
        self._proc: subprocess.Popen | None = None
        self.name = ""

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
        try:
            self._send("uci")
            while True:
                line = self._readline()
                if line.startswith("id name "):
                    self.name = line[len("id name "):]
                if line == "uciok":
                    break
            for name, value in self.options:
                self._send(f"setoption name {name} value {value}")
            self._send("isready")
            while self._readline() != "readyok":
                pass
        except ModelError:
            self.quit()  # reap an engine that fails its handshake
            raise
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

    def _go_command(self, movetime_ms, depth) -> str:
        movetime_ms = movetime_ms if movetime_ms is not None else self.movetime_ms
        depth = depth if depth is not None else self.depth
        parts = ["go"]
        if depth is not None:
            parts.append(f"depth {depth}")
        if movetime_ms is not None:
            parts.append(f"movetime {movetime_ms}")
        return " ".join(parts)

    def bestmove(self, fen: str, movetime_ms=None, depth=None) -> str:
        """Search from `fen` and return the engine's move text."""
        self._send(f"position fen {fen}")
        self._send(self._go_command(movetime_ms, depth))
        while True:
            line = self._readline()
            if line.startswith("bestmove"):
                parts = line.split()
                if len(parts) < 2:
                    raise ModelError("engine", f"bad bestmove line: {line!r}")
                return parts[1]

    def evaluate(self, fen: str, depth: int):
        """Search from `fen`, returning ((kind, value), best move text or None).

        kind is "cp" or "mate", from the side to move's perspective as UCI
        defines it; value comes from the last info line of the search.
        """
        self._send(f"position fen {fen}")
        self._send(f"go depth {depth}")
        score = None
        while True:
            line = self._readline()
            tokens = line.split()
            if tokens and tokens[0] == "info" and "score" in tokens:
                at = tokens.index("score")
                try:
                    score = (tokens[at + 1], int(tokens[at + 2]))
                except (IndexError, ValueError):
                    pass
            if tokens and tokens[0] == "bestmove":
                if score is None or score[0] not in ("cp", "mate"):
                    raise ModelError("engine", f"search returned no score for {fen}")
                best = tokens[1] if len(tokens) > 1 else "(none)"
                return score, None if best == "(none)" else best

    def quit(self) -> None:
        if self._proc is None:
            return
        try:
            self._send("quit")
        except ModelError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
        self._proc = None

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
