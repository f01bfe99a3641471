"""WSGI adapter: routes, status codes, byte-parity with direct core calls."""

import io
import json

import pytest

from repro.serve import canonical_json, create_app
from repro.serve.core import (
    MAX_BODY_CHARS,
    MAX_LANDING_URL_CHARS,
    MAX_TITLE_CHARS,
)
from repro.serve.wsgi import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def app(core):
    return create_app(core)


def call(app, method, path, query="", body=None):
    """Invoke the app with a synthetic environ; -> (status, headers, text)."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
    }
    if body is not None:
        raw = body.encode("utf-8")
        environ["CONTENT_LENGTH"] = str(len(raw))
        environ["wsgi.input"] = io.BytesIO(raw)
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    text = b"".join(chunks).decode("utf-8")
    return captured["status"], captured["headers"], text


class TestRoutes:
    def test_healthz(self, app, snapshot):
        status, headers, text = call(app, "GET", "/healthz")
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(text) == {"ok": True, "snapshot": snapshot.hash}

    def test_check_matches_core(self, app, core, known_url):
        from urllib.parse import urlencode

        status, _, text = call(app, "GET", "/check",
                               query=urlencode({"url": known_url}))
        assert status == "200 OK"
        assert text == canonical_json(core.check(known_url)) + "\n"

    def test_check_requires_url(self, app):
        status, _, text = call(app, "GET", "/check")
        assert status == "400 Bad Request"
        assert "url" in json.loads(text)["error"]

    def test_classify_matches_core(self, app, core):
        wpn = {"title": "hello prize", "body": "click now", "landing_url": None}
        status, _, text = call(app, "POST", "/classify", body=json.dumps(wpn))
        assert status == "200 OK"
        assert text == canonical_json(core.classify(wpn)) + "\n"

    def test_classify_rejects_bad_json(self, app):
        status, _, _ = call(app, "POST", "/classify", body="{nope")
        assert status == "400 Bad Request"

    def test_classify_rejects_non_object_body(self, app):
        status, _, _ = call(app, "POST", "/classify", body="[1,2]")
        assert status == "400 Bad Request"

    @pytest.mark.parametrize("field,value", [
        ("landing_url", "not a url"),
        ("landing_url", 5),
        ("landing_url", ["https://a.example/x"]),
        ("title", 5),
        ("title", None),
        ("body", {"text": "claim"}),
    ])
    def test_classify_rejects_malformed_wpn(self, app, field, value):
        wpn = {"title": "win", "body": "a prize", "landing_url": None}
        wpn[field] = value
        status, _, text = call(app, "POST", "/classify", body=json.dumps(wpn))
        assert status == "400 Bad Request"
        assert field in json.loads(text)["error"]

    @pytest.mark.parametrize("field,value", [
        ("title", "x" * (MAX_TITLE_CHARS + 1)),
        ("body", "x" * (MAX_BODY_CHARS + 1)),
        (
            "landing_url",
            "https://a.example/" + "x" * MAX_LANDING_URL_CHARS,
        ),
    ])
    def test_classify_rejects_over_long_field(self, app, field, value):
        wpn = {"title": "win", "body": "a prize", "landing_url": None}
        wpn[field] = value
        status, _, text = call(app, "POST", "/classify", body=json.dumps(wpn))
        assert status == "400 Bad Request"
        assert field in json.loads(text)["error"]

    def test_classify_accepts_fields_at_the_limit(self, app):
        wpn = {
            "title": "x" * MAX_TITLE_CHARS,
            "body": "x" * MAX_BODY_CHARS,
            "landing_url": None,
        }
        status, _, _ = call(app, "POST", "/classify", body=json.dumps(wpn))
        assert status == "200 OK"

    def test_oversized_body_is_413_and_never_read(self, app):
        class Unreadable:
            def read(self, *args):
                raise AssertionError("an oversized body must not be read")

        captured = {}
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/classify",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(MAX_BODY_BYTES + 1),
            "wsgi.input": Unreadable(),
        }
        text = b"".join(app(
            environ, lambda status, headers: captured.update(status=status)
        )).decode("utf-8")
        assert captured["status"] == "413 Content Too Large"
        assert str(MAX_BODY_BYTES) in json.loads(text)["error"]

    def test_campaign_matches_core(self, app, core, snapshot):
        cluster_id = int(sorted(
            snapshot.campaigns.values(), key=lambda c: c["cluster_id"]
        )[0]["cluster_id"])
        status, _, text = call(app, "GET", f"/campaign/{cluster_id}")
        assert status == "200 OK"
        assert text == canonical_json(core.campaign(cluster_id)) + "\n"

    def test_campaign_unknown_is_404(self, app):
        status, _, _ = call(app, "GET", "/campaign/999999999")
        assert status == "404 Not Found"

    def test_campaign_non_integer_is_400(self, app):
        status, _, _ = call(app, "GET", "/campaign/twelve")
        assert status == "400 Bad Request"

    def test_stats_matches_core(self, app, core):
        status, _, text = call(app, "GET", "/stats")
        assert status == "200 OK"
        assert text == canonical_json(core.stats()) + "\n"

    def test_unknown_route_is_404_with_route_list(self, app):
        status, _, text = call(app, "GET", "/nope")
        assert status == "404 Not Found"
        assert "/check" in json.loads(text)["routes"]

    @pytest.mark.parametrize("method,path", [
        ("POST", "/healthz"),
        ("POST", "/check"),
        ("GET", "/classify"),
        ("POST", "/stats"),
        ("DELETE", "/campaign/1"),
    ])
    def test_wrong_method_is_405(self, app, method, path):
        status, _, _ = call(app, method, path)
        assert status == "405 Method Not Allowed"

    def test_content_length_header_is_exact(self, app):
        _, headers, text = call(app, "GET", "/stats")
        assert int(headers["Content-Length"]) == len(text.encode("utf-8"))
