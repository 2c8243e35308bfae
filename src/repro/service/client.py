"""Blocking HTTP client for the serving layer.

A thin :mod:`http.client` wrapper used by the tests, the CI smoke
check, and the load benchmark — anything that wants to talk to a
:class:`~repro.service.server.VerificationServer` without pulling in an
async stack.  Templates are serialized to base64 ANSI/INCITS 378 on the
way out, mirroring :func:`repro.service.server.decode_template_field`
on the way in.

The client speaks the versioned ``/v1`` API (the only one the server
routes).  Error responses come back as
:class:`ServiceClientError` carrying the HTTP status and the server's
error envelope — ``code``/``message``/``request_id`` are exposed as
properties — so callers can assert on exact status codes (the smoke
test does) or branch on ``retryable`` (429/503/504 — the transient
statuses — line up with the study's
:class:`~repro.runtime.errors.TransientError` taxonomy).  The server's
``Retry-After`` header (sent on 429 and 503) is honored when backing
off — :meth:`ServiceClient.retry_delay` surfaces it,
:meth:`ServiceClient.wait_until_healthy` sleeps by it instead of a
fixed interval, and ``retry_rate_limited=N`` retries a 429 up to ``N``
times transparently.  ``api_key`` authenticates against a keyed server
(:mod:`repro.service.auth`).

Every request carries a generated ``X-Request-ID``, and the id the
server echoes back is kept on :attr:`ServiceClient.last_request_id`
(response headers on :attr:`~ServiceClient.last_headers`), so a caller
can tie its own records to the server's reqlog and traces.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..io.incits378 import encode as encode_378
from ..matcher.types import Template
from ..runtime.errors import ReproError, TransientError
from ..runtime.telemetry import new_request_id

#: HTTP statuses that correspond to transient (retry-worthy) failures:
#: overload (503), deadline (504), and rate limiting (429).
RETRYABLE_STATUSES = frozenset({429, 503, 504})

#: Path prefix of every endpoint.
API_BASE = "/v1"


class ServiceClientError(ReproError):
    """The server answered with an error status.

    ``payload`` is the parsed response body.  The v1 API wraps every
    failure in one envelope — ``{"error": {"code", "message",
    "request_id", ...}}`` — surfaced here through the :attr:`code`,
    :attr:`error_message`, :attr:`request_id` and :attr:`kind`
    properties; legacy flat bodies (``{"error": "..."}``) degrade to
    ``None`` codes rather than raising.
    """

    def __init__(self, status: int, payload: dict) -> None:
        error = payload.get("error") if isinstance(payload, dict) else None
        detail = error.get("message") if isinstance(error, dict) else error
        super().__init__(
            f"service returned HTTP {status}: {detail if detail is not None else payload}"
        )
        self.status = status
        self.payload = payload

    @property
    def _envelope(self) -> dict:
        error = self.payload.get("error") if isinstance(self.payload, dict) else None
        return error if isinstance(error, dict) else {}

    @property
    def code(self) -> Optional[str]:
        """The envelope's machine-readable error slug."""
        return self._envelope.get("code")

    @property
    def error_message(self) -> Optional[str]:
        """The envelope's human-readable message."""
        envelope = self._envelope
        if envelope:
            return envelope.get("message")
        error = self.payload.get("error") if isinstance(self.payload, dict) else None
        return error if isinstance(error, str) else None

    @property
    def request_id(self) -> Optional[str]:
        """The request id the server stamped on the failure."""
        return self._envelope.get("request_id")

    @property
    def kind(self) -> Optional[str]:
        """The library exception class named by the envelope, if any."""
        return self._envelope.get("kind")

    @property
    def retryable(self) -> bool:
        """Whether the failure is transient (overload / deadline)."""
        return self.status in RETRYABLE_STATUSES


def encode_template(template: Template) -> str:
    """Base64 INCITS 378 wire form of a template."""
    return base64.b64encode(encode_378(template)).decode("ascii")


class ServiceClient:
    """Blocking client for one server address.

    One persistent keep-alive connection per client instance; a client
    is therefore *not* thread-safe — the load generator gives each
    worker thread its own.

    ``followers`` names read replicas (``--follow`` servers tailing the
    primary's WAL): :meth:`verify` and :meth:`identify` round-robin
    across them,
    skipping past any that are unreachable and falling back to the
    primary when none answer, while writes (:meth:`enroll`,
    :meth:`delete`) always target the primary — a replica would refuse
    them with ``read_only`` anyway.

    ``api_key`` attaches ``Authorization: Bearer <key>`` to every
    request (replicas included — a follower enforces the same keyfile
    as its primary).  ``retry_rate_limited`` opts into transparent 429
    retries: up to that many extra attempts, each sleeping the server's
    advertised ``Retry-After`` first; the default 0 surfaces the 429 to
    the caller immediately.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        followers: Optional[Sequence[Tuple[str, int]]] = None,
        api_key: Optional[str] = None,
        retry_rate_limited: int = 0,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self.api_key = api_key
        self.retry_rate_limited = max(0, int(retry_rate_limited))
        self._followers: List["ServiceClient"] = [
            ServiceClient(
                replica_host, int(replica_port),
                timeout_s=timeout_s, api_key=api_key,
            )
            for replica_host, replica_port in followers or ()
        ]
        self._follower_rr = 0
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Request id echoed by the server on the last response (the id
        #: this client sent, unless a proxy rewrote it).
        self.last_request_id: Optional[str] = None
        #: Lower-cased headers of the last response (``retry-after``
        #: shows up here on a 429/503).
        self.last_headers: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout_s
            )
        return self._connection

    def close(self) -> None:
        """Drop the persistent connection(s) (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        for replica in self._followers:
            replica.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _exchange(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple:
        """One round trip; returns ``(status, raw_body)`` after capturing
        the echoed request id and response headers."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        request_id = new_request_id()
        headers["X-Request-ID"] = request_id
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            connection = self._connect()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (ConnectionError, socket.timeout, http.client.HTTPException, OSError) as exc:
            self.close()
            raise TransientError(
                f"service at {self._host}:{self._port} unreachable: {exc}"
            ) from exc
        self.last_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        self.last_request_id = self.last_headers.get("x-request-id", request_id)
        return response.status, raw

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        attempts_left = self.retry_rate_limited
        while True:
            status, raw = self._exchange(method, path, payload)
            try:
                data = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                data = {"error": raw.decode("utf-8", "replace")}
            if status == 429 and attempts_left > 0:
                # The limiter advertises exactly when the next token
                # lands; sleeping that long makes the retry succeed
                # (absent competing traffic) instead of busy-looping.
                attempts_left -= 1
                time.sleep(self.retry_delay())
                continue
            if status >= 400:
                raise ServiceClientError(status, data)
            return data

    @staticmethod
    def _path(endpoint: str) -> str:
        """An endpoint path under the API base."""
        return f"{API_BASE}{endpoint}"

    @property
    def followers(self) -> Tuple["ServiceClient", ...]:
        """Every configured read-replica client, in declaration order."""
        return tuple(self._followers)

    def _read_request(self, method: str, path: str, payload: dict) -> dict:
        """A read: round-robin the replicas, fall back to the primary.

        Successive reads start from successive replicas, so a replica
        fleet shares the load evenly.  Only transport failures move on
        to the next replica (and ultimately the primary) — an HTTP
        error from a replica (bad template, unknown identity, 401/403,
        429) is the same answer the primary would give, so it
        propagates as-is rather than doubling the load.
        """
        count = len(self._followers)
        if count:
            start = self._follower_rr
            self._follower_rr = (start + 1) % count
            for offset in range(count):
                replica = self._followers[(start + offset) % count]
                try:
                    result = replica._request(method, path, payload)
                except TransientError:
                    continue  # replica unreachable: try the next one
                self.last_request_id = replica.last_request_id
                self.last_headers = replica.last_headers
                return result
        return self._request(method, path, payload)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness probe."""
        return self._request("GET", self._path("/healthz"))

    def stats(self) -> dict:
        """The server's live counters and distributions."""
        return self._request("GET", self._path("/stats"))

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        status, raw = self._exchange("GET", self._path("/metrics"))
        text = raw.decode("utf-8", "replace")
        if status >= 400:
            raise ServiceClientError(status, {"error": text})
        return text

    def enroll(
        self, identity: str, template: Template, device: str = "default"
    ) -> dict:
        """Enroll one template (may raise 409 via ServiceClientError)."""
        return self._request(
            "POST",
            self._path("/enroll"),
            {
                "identity": identity,
                "device": device,
                "template": encode_template(template),
            },
        )

    def verify(
        self,
        identity: str,
        template: Template,
        device: str = "default",
        threshold: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """1:1 verification of a claimed identity."""
        payload: dict = {
            "identity": identity,
            "device": device,
            "template": encode_template(template),
        }
        if threshold is not None:
            payload["threshold"] = threshold
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return self._read_request("POST", self._path("/verify"), payload)

    def identify(
        self,
        template: Template,
        device: Optional[str] = "default",
        max_candidates: int = 10,
        threshold: Optional[float] = None,
        timeout_s: Optional[float] = None,
        mode: Optional[str] = None,
        candidate_k: Optional[int] = None,
    ) -> dict:
        """1:N search; ``device=None`` searches every shard.

        ``mode`` selects the search path (``"exact"`` exhaustive,
        ``"two_stage"`` descriptor-prefiltered; ``None`` defers to the
        server's default), and ``candidate_k`` sizes the two-stage
        shortlist.  The response's ``search`` block reports what
        actually ran.
        """
        payload: dict = {
            "template": encode_template(template),
            "max_candidates": max_candidates,
        }
        if device is not None:
            payload["device"] = device
        if threshold is not None:
            payload["threshold"] = threshold
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if mode is not None:
            payload["mode"] = mode
        if candidate_k is not None:
            payload["candidate_k"] = candidate_k
        return self._read_request("POST", self._path("/identify"), payload)

    def delete(self, identity: str, device: str = "default") -> dict:
        """Remove one enrollment."""
        return self._request("DELETE", self._path(f"/enroll/{device}/{identity}"))

    def retry_delay(self, default: float = 0.05) -> float:
        """How long to back off before retrying the last failed request.

        Honors the server's ``Retry-After`` header (seconds form) when
        the last response carried one — the server knows its own queue
        better than any client-side constant — and falls back to
        ``default`` when absent or unparsable.  Negative advertised
        delays clamp to 0.
        """
        raw = self.last_headers.get("retry-after")
        if raw is not None:
            try:
                return max(0.0, float(raw))
            except ValueError:
                pass
        return max(0.0, default)

    def wait_until_healthy(self, timeout_s: float = 10.0) -> dict:
        """Poll ``/healthz`` until the server answers (startup helper).

        Backs off by the server's ``Retry-After`` on a 503 (capped to
        the remaining budget) and by a short fixed interval while the
        socket is not answering at all.
        """
        deadline = time.monotonic() + timeout_s
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except ServiceClientError as exc:
                last_error = exc
                delay = self.retry_delay() if exc.status == 503 else 0.05
                time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            except TransientError as exc:
                last_error = exc
                time.sleep(0.05)
        raise TransientError(
            f"service at {self._host}:{self._port} did not become healthy "
            f"within {timeout_s:.1f}s: {last_error}"
        )


__all__ = [
    "ServiceClient",
    "ServiceClientError",
    "encode_template",
    "RETRYABLE_STATUSES",
]
