"""Command line front end.

Exit codes
  validate   0 valid, 1 findings reported, 2 unreadable config or documents
  decide     0 Permit, 3 Deny, 4 NotApplicable, 5 Indeterminate, 2 bad input
  oracle     0 engine and oracle agree, 1 mismatch found, 2 bad input
  serve      2 bad config, an audit log that cannot be opened or a listen
             address that cannot be bound, otherwise 0 once SIGTERM or
             Ctrl-C stops it

Results go to stdout, diagnostics to stderr.  The SACPDP_CONFIG environment
variable, when set, overrides the config path argument of every command.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bundle import build_store, load_bundle, validate_bundle
from .errors import SacError
from .pdp import DecisionValue, decide, explain
from .registry import build_access_request
from .service import Gateway, load_gateway_config
from .xmlio import parse_xacml_request

DECIDE_EXIT = {
    DecisionValue.PERMIT: 0,
    DecisionValue.DENY: 3,
    DecisionValue.NOT_APPLICABLE: 4,
    DecisionValue.INDETERMINATE: 5,
}


def _config_path(arg: str) -> str:
    return os.environ.get("SACPDP_CONFIG", arg)


def _read_document(path: str) -> bytes | str:
    """A document's bytes (stdin's text where it has no bytes); the readers
    decode them, and refuse a document that is not UTF-8."""
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    return Path(path).read_bytes()


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        bundle = load_bundle(_config_path(args.config))
        findings, store, _ = validate_bundle(bundle)
    except SacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if findings:
        for finding in findings:
            print(finding)
        return 1
    print(f"ok: {len(store.policy.rules)} rule(s) active")
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    try:
        store, kb = build_store(load_bundle(_config_path(args.config)))
        wire = parse_xacml_request(_read_document(args.request))
        request, conflicts = build_access_request(wire, kb, store)
    except (SacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    decision = decide(store, request)
    print(decision.value.value)
    for note in conflicts:
        print(f"note: {note}", file=sys.stderr)
    if args.explain:
        print(explain(decision))
    return DECIDE_EXIT[decision.value]


def cmd_oracle(args: argparse.Namespace) -> int:
    import random

    from .gen import decision_fingerprint, run_differential  # here alone: no other command needs the oracle

    try:
        bundle = load_bundle(_config_path(args.config))
        store, kb = build_store(bundle)
        canned = []
        for path in bundle.request_paths():
            wire = parse_xacml_request(path.read_bytes())
            request, _ = build_access_request(wire, kb, store)
            canned.append((path.name, request))
    except (SacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    report = run_differential(store, kb, canned, args.random, seed)
    print(f"seed {report.seed}")
    print(
        f"checked {report.total} request(s): "
        f"{report.canned} canned, {report.randomized} randomized"
    )
    for miss in report.mismatches:
        print(f"MISMATCH {miss.label}:")
        print(f"  engine {decision_fingerprint(miss.engine)}")
        print(f"  oracle {decision_fingerprint(miss.oracle)}")
    if report.mismatches:
        print(f"{len(report.mismatches)} mismatch(es)")
        return 1
    print("engine and oracle agree")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = load_gateway_config(_config_path(args.config))
        gateway = Gateway(config)
    except (SacError, OSError) as exc:  # OSError: the audit log cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        port = gateway.bind()
    except OSError as exc:
        gateway.stop()
        print(f"error: cannot listen on {config.listen_host}:{config.listen_port}: {exc}", file=sys.stderr)
        return 2
    print(f"listening on {config.listen_host}:{port}, upstream {config.upstream}", file=sys.stderr)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sacpdp", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and cross-check every bundle document")
    p.add_argument("config", help="bundle config file or directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decide", help="decide one request document against a bundle")
    p.add_argument("config", help="bundle config file or directory")
    p.add_argument("request", help="request document path, or - for stdin")
    p.add_argument("--explain", action="store_true", help="print the decision trace")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("oracle", help="differential check: engine against the reference model")
    p.add_argument("config", help="bundle config file or directory")
    p.add_argument("--random", type=int, default=100, metavar="N", help="randomized requests")
    p.add_argument("--seed", type=int, default=None, help="seed for the randomized requests")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("serve", help="run the enforcement gateway")
    p.add_argument("config", help="gateway config file or directory")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
