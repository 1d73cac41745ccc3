"""Loopback OpenAI-compatible endpoint for the ``qa_http`` workload.

Serves ``POST /chat/completions`` and ``POST /embeddings`` by wrapping the
program's ``MockGeneratorBackend`` and ``MockEmbedderBackend``, so answers
equal an in-process ``--mock`` run's. Each request takes a fixed service
time (the mock's own work included), with a generator call dearer than an
embedder call. The server never injects transport faults; the one injected
misbehaviour is that the first attempt at each listed question's pair prompt
gets unparseable text, so the program's parse retries run. No prompt fails
twice, so outputs still equal the mock's.

It counts requests, connections, bytes and busy time per endpoint and per
prompt kind (pair, draft, pseudo_doc, answer). Two control paths, which are
not counted: ``POST /_bench/reset`` zeroes the counters and the
failed-once set, ``GET /_bench/stats`` returns the counters as JSON.

Start it as its own process; it prints its port on the first stdout line:

    python3 perfbench/endpoint.py --seed 3 --fail-stems stems.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import bootstrap

GENERATOR_SERVICE_S = 0.012
EMBEDDER_SERVICE_S = 0.003
UNPARSEABLE = "I am unable to format this as the requested JSON object right now."
_QUESTION_RE = re.compile(r"^Question:\s*(.*)$", re.MULTILINE)


class Counters:
    """Request accounting, guarded by one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.connections = 0
        self.by_route: dict[str, dict[str, float]] = {}
        self.failed_once: set[str] = set()

    def add(self, route: str, bytes_in: int, bytes_out: int, busy_s: float) -> None:
        with self.lock:
            row = self.by_route.setdefault(
                route, {"requests": 0, "bytes_in": 0, "bytes_out": 0, "busy_s": 0.0}
            )
            row["requests"] += 1
            row["bytes_in"] += bytes_in
            row["bytes_out"] += bytes_out
            row["busy_s"] += busy_s

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "routes": {k: dict(v) for k, v in self.by_route.items()},
            }


class Endpoint(ThreadingHTTPServer):
    """One thread per open connection; at most ``nproc`` requests served at once."""

    daemon_threads = True

    def __init__(self, seed: int, fail_stems: set[str]):
        super().__init__(("127.0.0.1", 0), Handler)
        from contrastive_retrieval import backends
        from contrastive_retrieval.config import RunConfig
        from tracing import prompt_kind

        self.prompt_kind = prompt_kind
        # The dimension ``chr-rag --mock`` gives its embedder.
        self.embedder = backends.MockEmbedderBackend(dimension=RunConfig().mock_dimension, seed=seed)
        self.generator = backends.MockGeneratorBackend(seed=seed, embedder=self.embedder)
        self.fail_stems = fail_stems
        self.counters = Counters()
        self.slots = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))
        # The mocks keep per-instance caches, so they are used one at a time.
        self.mock_lock = threading.Lock()

    def complete(self, payload: dict) -> tuple[str, dict]:
        messages = payload["messages"]
        prompt = messages[-1]["content"]
        kind = self.prompt_kind(messages)
        if kind == "pair":
            match = _QUESTION_RE.search(prompt)
            stem = match.group(1).strip() if match else ""
            with self.counters.lock:
                fail = stem in self.fail_stems and stem not in self.counters.failed_once
                if fail:
                    self.counters.failed_once.add(stem)
            if fail:
                return "pair_unparseable", _chat(UNPARSEABLE)
        with self.mock_lock:
            text = self.generator.complete(messages, temperature=payload.get("temperature", 0.0)).text
        return kind, _chat(text)

    def embed(self, payload: dict) -> dict:
        with self.mock_lock:
            vec = self.embedder.embed(payload["input"])
        return {"data": [{"index": 0, "embedding": vec.tolist()}]}


def _chat(text: str) -> dict:
    return {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive works for clients that reuse connections
    timeout = 30  # an idle kept-alive connection releases its thread after this

    # Set once this connection has carried a counted request; the control
    # paths' connections are not the program's.
    counted = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - base-class signature
        pass

    def _reply(self, obj: dict, status: int = 200) -> int:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def do_GET(self) -> None:
        if self.path == "/_bench/stats":
            self._reply(self.server.counters.snapshot())
        else:
            self._reply({"error": "not found"}, 404)

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server: Endpoint = self.server
        if self.path == "/_bench/reset":
            with server.counters.lock:
                server.counters.reset()
            self._reply({})
            return
        route = self.path.rstrip("/").rsplit("/", 1)[-1]
        if route not in ("completions", "embeddings"):
            self._reply({"error": "not found"}, 404)
            return
        if not self.counted:
            self.counted = True
            with server.counters.lock:
                server.counters.connections += 1
        with server.slots:
            started = time.perf_counter()
            payload = json.loads(raw)
            if route == "completions":
                label, response = server.complete(payload)
                label, service_s = f"generator.{label}", GENERATOR_SERVICE_S
            else:
                response = server.embed(payload)
                label, service_s = "embedder", EMBEDDER_SERVICE_S
            remaining = started + service_s - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            sent = self._reply(response)
            server.counters.add(label, len(raw), sent, time.perf_counter() - started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fail-stems", required=True, help="JSON list of question stems")
    args = parser.parse_args(argv)
    bootstrap.import_program()
    with open(args.fail_stems, encoding="utf-8") as fh:
        fail_stems = set(json.load(fh))
    server = Endpoint(args.seed, fail_stems)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
