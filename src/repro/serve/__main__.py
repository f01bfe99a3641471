"""CLI adapter: ``python -m repro.serve``.

One-shot queries against a snapshot file, or a local HTTP listener:

    python -m repro.serve --snapshot snap.json stats
    python -m repro.serve --snapshot snap.json check https://host/path
    python -m repro.serve --snapshot snap.json classify \\
        --title "You won" --body "claim your prize" \\
        --landing-url https://win.example/claim
    python -m repro.serve --snapshot snap.json campaign 12
    python -m repro.serve --snapshot snap.json serve --port 8700

Snapshots are *built* by the top-level CLI (``python -m repro snapshot``)
or :meth:`repro.serve.MinedSnapshot.from_result` — building needs the
crawler and miner, which sit above this package in the layering DAG.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.serve.core import InvalidQueryError, ServeCore, UnknownCampaignError
from repro.serve.snapshot import MinedSnapshot, SnapshotError, canonical_json
from repro.serve.wsgi import serve_forever


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="query a mined snapshot (repro-snapshot/1)",
    )
    parser.add_argument("--snapshot", required=True,
                        help="path to a repro-snapshot/1 JSON file")
    parser.add_argument("--workers", type=int, default=1,
                        help="ExecutionPlan workers for classify kernels "
                             "(answers are byte-identical for any count)")
    parser.add_argument("--tile-size", type=int, default=None,
                        help="kernel row-tile size (default ExecutionPlan's)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the response cache (answers do not "
                             "change; only latency does)")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="blocklist-style URL verdict")
    check.add_argument("url")

    classify = commands.add_parser(
        "classify", help="nearest-campaign assignment for one WPN"
    )
    classify.add_argument("--title", default="")
    classify.add_argument("--body", default="")
    classify.add_argument("--landing-url", default=None)

    campaign = commands.add_parser("campaign", help="one cluster's dossier")
    campaign.add_argument("cluster_id", type=int)

    commands.add_parser("stats", help="snapshot-wide headline numbers")

    serve = commands.add_parser(
        "serve", help="run a local HTTP listener (wsgiref)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8700)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        snapshot = MinedSnapshot.load(args.snapshot)
    except (OSError, SnapshotError) as exc:
        print(f"repro.serve: cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    core = ServeCore(
        snapshot,
        workers=args.workers,
        tile_size=args.tile_size,
        cache_size=0 if args.no_cache else 1024,
    )

    if args.command == "check":
        response = core.check(args.url)
    elif args.command == "classify":
        try:
            response = core.classify(
                {
                    "title": args.title,
                    "body": args.body,
                    "landing_url": args.landing_url,
                }
            )
        except InvalidQueryError as exc:
            print(f"repro.serve: invalid classify input: {exc}",
                  file=sys.stderr)
            return 2
    elif args.command == "campaign":
        try:
            response = core.campaign(args.cluster_id)
        except UnknownCampaignError as exc:
            print(f"repro.serve: {exc.args[0]}", file=sys.stderr)
            return 1
    elif args.command == "stats":
        response = core.stats()
    else:  # serve
        serve_forever(core, args.host, args.port)
        return 0

    print(canonical_json(response))
    return 0


if __name__ == "__main__":
    sys.exit(main())
