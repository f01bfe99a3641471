"""The benchmark's own request generator for the serving leg.

Requests are built from the seed and the served snapshot only, so an
edit to ``repro.serve.loadgen`` cannot change the workload.  Key
popularity is Zipf-skewed over a seeded permutation of the snapshot's
URLs, records and campaign ids: the head is re-asked, so the 1024-entry
response cache sees hits, while the roughly 4k distinct keys plus unique
unknown URLs make the working set larger than the cache.

A fixed share of the mix is malformed input whose correct answer is a
4xx.  It includes ``POST /classify`` with ``"landing_url": "not a url"``,
which the program currently answers with an uncaught ``ValueError``; the
benchmark counts that as a failed request instead of filtering it out.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple
from urllib.parse import quote

#: (kind, weight per 1000 requests) of the well-formed requests.
#: Classify costs 10-50x a check, and a read the writer overlaps waits
#: up to a 5 ms GIL switch interval, so the latencies have a cheap mode
#: (0.2-0.5 ms) and a slow one (1-20 ms).  Classify is kept to 3% so
#: that, with the writer busy for about a fifth of the open loop, the
#: median lies inside the cheap mode instead of at its edge, where it
#: moved by 20-35% from run to run.
MIX: Tuple[Tuple[str, int], ...] = (
    ("check_known", 600),
    ("check_unknown", 140),
    ("classify", 31),
    ("campaign", 168),
    ("stats", 61),
)
#: Every ``MALFORMED_EVERY``-th request of a stream is malformed (2%),
#: at fixed positions, so that the number of malformed requests, and of
#: those the program fails, depends on the request count only.
MALFORMED_EVERY = 50
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    query: str = ""
    body: bytes = b""
    #: The correct answer is a 4xx (malformed or unknown-id input).
    expect_4xx: bool = False


def _malformed() -> List[Request]:
    """Inputs whose correct answer is a 4xx, in a fixed rotation."""
    return [
        Request("malformed", "POST", "/classify", body=b"{not json", expect_4xx=True),
        Request("malformed", "POST", "/classify", body=b"[1, 2]", expect_4xx=True),
        Request("malformed", "GET", "/check", query="", expect_4xx=True),
        Request("malformed", "GET", "/campaign/abc", expect_4xx=True),
        Request("malformed", "GET", "/campaign/999999999", expect_4xx=True),
        Request(
            "malformed", "POST", "/classify",
            body=json.dumps(
                {"title": "win", "body": "a prize", "landing_url": "not a url"}
            ).encode(),
            expect_4xx=True,
        ),
    ]


class _Zipf:
    """Seeded Zipf draw over a seeded permutation of ``keys``."""

    def __init__(self, keys: Sequence[Any], rng: random.Random):
        self.keys = list(keys)
        rng.shuffle(self.keys)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.keys))]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> Any:
        point = rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_left(self.cumulative, point)]


class RequestStream:
    """Endless deterministic request sequence for one snapshot and seed."""

    def __init__(self, snapshot: Any, seed: int, salt: str = "stream"):
        self._rng = random.Random(f"perfbench/{salt}/{seed}")
        self._urls = _Zipf(sorted(snapshot.urls), self._rng)
        self._records = _Zipf(range(len(snapshot.records)), self._rng)
        self._campaigns = _Zipf(
            sorted(int(c["cluster_id"]) for c in snapshot.campaigns.values()),
            self._rng,
        )
        self._rows = snapshot.records
        self._kinds = [kind for kind, weight in MIX for _ in range(weight)]
        self._malformed = itertools.cycle(_malformed())
        self._position = 0

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        self._position += 1
        if self._position % MALFORMED_EVERY == 0:
            return next(self._malformed)
        rng = self._rng
        kind = rng.choice(self._kinds)
        if kind == "check_known":
            return check_request(kind, self._urls.draw(rng))
        if kind == "check_unknown":
            host = f"never-crawled-{rng.randrange(10 ** 9)}.example"
            return check_request(kind, f"https://{host}/landing/{rng.randrange(100)}")
        if kind == "classify":
            row = self._rows[self._records.draw(rng)]
            tokens = row["text_tokens"]
            wpn = {
                "title": " ".join(tokens[:6]),
                "body": " ".join(tokens[6:]),
                "landing_url": row["landing_url"],
            }
            return Request(kind, "POST", "/classify", body=json.dumps(wpn).encode())
        if kind == "campaign":
            return Request(kind, "GET", f"/campaign/{self._campaigns.draw(rng)}")
        return Request(kind, "GET", "/stats")


def check_request(kind: str, url: str) -> Request:
    return Request(kind, "GET", "/check", query="url=" + quote(url, safe=""))


def probe_set(snapshot: Any, seed: int, n: int = 48) -> List[Request]:
    """Fixed probes replayed serially to check answers: every malformed
    form plus ``n`` draws from a stream with its own salt."""
    stream = RequestStream(snapshot, seed, salt="probes")
    return _malformed() + [next(stream) for _ in range(n)]


def call(app: Callable[..., Any], request: Request) -> Tuple[int, bytes]:
    """Send one request into a WSGI app in-process; ``(status, body)``."""
    environ: Dict[str, Any] = {
        "REQUEST_METHOD": request.method,
        "PATH_INFO": request.path,
        "QUERY_STRING": request.query,
        "CONTENT_LENGTH": str(len(request.body)),
        "wsgi.input": io.BytesIO(request.body),
    }
    statuses: List[str] = []
    body = b"".join(app(environ, lambda status, headers: statuses.append(status)))
    return int(statuses[0].split()[0]), body
