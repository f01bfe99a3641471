"""Tests for container sessions: timing policy and record production."""

import pytest

from repro.crawler.session import ContainerSession
from repro.push.fcm import FcmService
from repro.util.rng import RngFactory


def make_session(ecosystem, site, platform="desktop", seed=1, start=0.0):
    return ContainerSession(
        ecosystem=ecosystem,
        fcm=FcmService(),
        site=site,
        platform=platform,
        rng=RngFactory(seed).stream("session"),
        start_min=start,
    )


def active_publisher(ecosystem):
    for site in ecosystem.websites:
        if site.kind == "publisher" and site.requests_permission and site.active_notifier:
            return site
    raise AssertionError("no active publisher")


def non_prompting_site(ecosystem):
    for site in ecosystem.websites:
        if not site.requests_permission:
            return site
    raise AssertionError("none found")


#: Container parts a session builds on first use.
CONTAINER_PARTS = ("session_key", "fcm", "rng", "browser", "device")


def inactive_site(ecosystem):
    for site in ecosystem.websites:
        if site.requests_permission and not site.active_notifier:
            return site
    raise AssertionError("none found")


class TestOnlineWindows:
    def test_within_live_window_is_immediate(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.permission_wait_min + 2.0
        assert session.next_online_min(t) == t

    def test_after_live_window_waits_for_resume(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.permission_wait_min + config.live_window_min + 5.0
        delivered = session.next_online_min(t)
        assert delivered > t
        assert (delivered - session.start_min) % config.resume_every_min == 0

    def test_inside_resume_window_is_immediate(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.resume_every_min + config.resume_window_min / 2
        assert session.next_online_min(t) == t

    def test_never_beyond_study_end(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.study_minutes - 1.0
        assert session.next_online_min(t) <= config.study_minutes


class TestRun:
    def test_inactive_site_produces_nothing(self, small_ecosystem):
        result = make_session(small_ecosystem, inactive_site(small_ecosystem)).run()
        assert result.records == []
        assert result.requested_permission

    def test_active_publisher_produces_records(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        assert result.records
        for record in result.records:
            assert record.platform == "desktop"
            assert record.source_url == str(result.site.url)
            assert record.title
            assert record.shown_at_min >= record.sent_at_min
            if record.valid:
                assert record.landing_url is not None
                assert record.redirect_hops
            else:
                assert record.landing_url is None

    def test_records_have_consistent_truth(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        for record in result.records:
            if record.truth.campaign_id is not None:
                campaign = small_ecosystem.campaign(record.truth.campaign_id)
                assert record.truth.malicious == campaign.malicious
                assert record.truth.kind == "ad"
            else:
                assert not record.truth.malicious

    def test_leads_only_from_valid_landings(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        valid = sum(1 for r in result.records if r.valid)
        assert len(result.landing_leads) == valid

    def test_first_latency_is_send_latency(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        if result.first_latency_min is not None:
            assert result.first_latency_min >= 0.0

    def test_sw_requests_collected(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        assert result.sw_requests
        assert all(r.initiator == "service_worker" for r in result.sw_requests)

    def test_mobile_session_uses_android_path(self, small_ecosystem):
        site = active_publisher(small_ecosystem)
        session = make_session(small_ecosystem, site, platform="mobile")
        result = session.run()
        assert session.device is not None
        assert session.device.accessibility.taps == len(result.records)

    def test_alert_repeats_happen(self, small_ecosystem):
        # With repeat rate > 0, an alert-heavy site eventually resends a
        # creative verbatim.
        for site in small_ecosystem.websites:
            if site.kind == "alert" and site.requests_permission:
                break
        repeats = 0
        for seed in range(12):
            site2 = site
            from dataclasses import replace

            site2 = replace(site, active_notifier=True)
            result = make_session(small_ecosystem, site2, seed=seed).run()
            titles = [r.title for r in result.records]
            if len(titles) != len(set(titles)):
                repeats += 1
        assert repeats > 0


class TestLazyContainer:
    @pytest.mark.parametrize("platform", ["desktop", "mobile"])
    def test_non_prompting_site_builds_nothing(self, small_ecosystem, platform):
        site = non_prompting_site(small_ecosystem)
        session = ContainerSession(
            ecosystem=small_ecosystem, site=site, platform=platform,
            start_min=0.0,
        )
        result = session.run()
        assert result.site is site
        assert result.platform == platform
        assert not result.requested_permission
        assert result.subscriptions == 0
        assert result.records == []
        assert result.landing_leads == []
        assert result.sw_requests == []
        assert result.first_latency_min is None
        for part in CONTAINER_PARTS:
            assert part not in vars(session), part

    @pytest.mark.parametrize("platform", ["desktop", "mobile"])
    def test_prompting_session_builds_its_container(
        self, small_ecosystem, platform
    ):
        session = ContainerSession(
            ecosystem=small_ecosystem,
            site=active_publisher(small_ecosystem),
            platform=platform,
            start_min=0.0,
        )
        result = session.run()
        assert result.requested_permission
        assert result.subscriptions > 0
        for part in ("session_key", "fcm", "rng", "browser"):
            assert part in vars(session), part
        assert session.fcm.namespace == session.session_key
        assert (session.device is not None) == (platform == "mobile")

    def test_explicit_broker_and_stream_are_used(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        fcm, rng = session.fcm, session.rng
        session.run()
        assert session.browser.fcm is fcm
        assert session.browser.rng is rng

    def test_start_times_drawn_only_for_prompting_sites(self, small_ecosystem):
        from repro.crawler.engine import CrawlEngine, PlatformWave
        from repro.util.rng import RngFactory

        sites = tuple(small_ecosystem.websites[:40])
        assert any(s.requests_permission for s in sites)
        assert not all(s.requests_permission for s in sites)
        jobs = CrawlEngine(small_ecosystem)._seed_jobs(
            [PlatformWave(platform="desktop", sites=sites)]
        )
        config = small_ecosystem.config
        starts = RngFactory(config.seed).child("crawl-start")
        for job in jobs:
            if job.site.requests_permission:
                stream = starts.stream(f"desktop|{job.site.url}")
                expected = stream.uniform(0.0, config.study_minutes * 0.5)
                assert job.start_min == expected
            else:
                assert job.start_min == 0.0
