"""In-process chat-completion server for endpoint client tests.

Behavior is selected by the requested model name, so one server covers every
scenario; every request body and its headers are recorded for assertions.
"""
from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {"path": self.path, "body": body, "headers": dict(self.headers)}
        )
        model = body.get("model", "echo")
        messages = body.get("messages", [])
        last_user = next(
            (m["content"] for m in reversed(messages) if m.get("role") == "user"), ""
        )

        if model == "sleep":
            time.sleep(1.0)
            self._reply_text("slept")
        elif model == "http-500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"server exploded")
        elif model == "flaky-500":
            self.server.flaky_count += 1
            if self.server.flaky_count == 1:
                self.send_response(500)
                self.end_headers()
            else:
                self._reply_text("recovered")
        elif model == "malformed":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(b"{not json")
        elif model == "no-content":
            self._reply_json({"choices": [{"message": {"role": "assistant"}}]})
        elif model == "think-tags":
            self._reply_text("<think>pawn to e5 looks safe</think>make_move e7e5")
        elif model == "reasoning-field":
            self._reply_json({
                "choices": [{
                    "message": {
                        "role": "assistant",
                        "content": "make_move e7e5",
                        "reasoning_content": "long deliberation",
                    }
                }],
                "usage": {"prompt_tokens": 12, "completion_tokens": 5},
            })
        elif model.startswith("fixed:"):
            self._reply_text(model[len("fixed:"):])
        else:  # echo
            self._reply_text(last_user)

    def _reply_text(self, text):
        self._reply_json({
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        })

    def _reply_json(self, payload):
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


@contextmanager
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    server.flaky_count = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", server
    finally:
        server.shutdown()
        thread.join()
