"""Command-line front-end: optimize / validate / run assembly files.

Makes the library usable without writing Python::

    python -m repro optimize kernel.s --live-out xmm0 \\
        --range xmm0=-3.14:3.14 --eta 1e9 --proposals 20000 \\
        --restarts 16 --jobs 4
    python -m repro validate target.s rewrite.s --live-out xmm0 \\
        --range xmm0=-1:1 --eta 1e6
    python -m repro run kernel.s --set xmm0=2.5 --live-out xmm0
    python -m repro trace kernel.s --set xmm0=2.5

Ranges and inputs use ``location=value`` / ``location=lo:hi`` syntax with
the location grammar of :mod:`repro.x86.locations`.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Tuple

from repro.core import (
    CostConfig,
    known_backends,
    SearchConfig,
    Stoke,
    StokeSpec,
    run_restarts,
)
from repro.validation import ValidationConfig, Validator
from repro.x86 import assemble
from repro.x86.testcase import TestCase, uniform_testcases


def _parse_ranges(items: List[str]) -> Dict[str, Tuple[float, float]]:
    ranges = {}
    for item in items:
        loc, _, span = item.partition("=")
        lo, _, hi = span.partition(":")
        if not hi:
            raise SystemExit(f"--range needs loc=lo:hi, got {item!r}")
        ranges[loc] = (float(lo), float(hi))
    return ranges


def _parse_values(items: List[str]) -> Dict[str, float]:
    values = {}
    for item in items:
        loc, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"--set needs loc=value, got {item!r}")
        values[loc] = float(value)
    return values


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _load_program(path: str):
    with open(path) as fh:
        return assemble(fh.read())


def cmd_optimize(args) -> int:
    target = _load_program(args.program)
    ranges = _parse_ranges(args.range)
    tests = uniform_testcases(random.Random(args.seed), args.testcases,
                              ranges)
    stoke = Stoke(target, tests, args.live_out,
                  CostConfig(eta=args.eta, k=args.k),
                  backend=args.backend)
    config = SearchConfig(proposals=args.proposals, seed=args.seed)
    restarts = run_restarts(stoke, config, chains=args.restarts,
                            jobs=args.jobs,
                            spec=StokeSpec.from_stoke(stoke))
    result = restarts.best
    print(f"# target: {target.loc} LOC / {target.latency} cycles")
    print(f"# search: {args.restarts} chain(s) x {args.proposals} "
          f"proposals, {restarts.jobs} worker(s)")
    for chain in restarts.chains:
        print(f"#   chain seed={chain.seed}: best cost {chain.best_cost:g}, "
              f"{chain.stats.proposals_per_second:,.0f} proposals/s, "
              f"accept rate {chain.stats.acceptance_rate:.3f}, "
              f"correct={'yes' if chain.found_correct else 'no'}")
    if result.best_correct is None:
        print("# no correct rewrite found")
        return 1
    if sum(chain.stats.accepted for chain in restarts.chains) == 0:
        # The chains never moved: the "rewrite" is the unmodified target
        # (or the init), so the search found nothing.  Emit it for
        # inspection but fail the invocation.
        print("# search accepted zero proposals (no movement; "
              "result is the initial program)")
        sys.stdout.write(result.best_correct.to_text())
        return 1
    print(f"# rewrite: {result.best_correct.loc} LOC / "
          f"{result.best_correct_latency} cycles "
          f"({result.speedup():.2f}x, eta={args.eta:g})")
    sys.stdout.write(result.best_correct.to_text())
    return 0


def cmd_validate(args) -> int:
    target = _load_program(args.target)
    rewrite = _load_program(args.rewrite)
    ranges = _parse_ranges(args.range)
    midpoints = {loc: (lo + hi) / 2 for loc, (lo, hi) in ranges.items()}
    validator = Validator(target, rewrite, args.live_out, ranges,
                          lambda: TestCase.from_values(midpoints),
                          backend=args.backend)
    result = validator.validate(ValidationConfig(
        eta=args.eta, max_proposals=args.proposals, seed=args.seed))
    print(f"max error: {result.max_err:.6g} ULPs "
          f"({result.samples} samples, converged={result.converged})")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'} "
          f"against eta={args.eta:g}")
    if result.argmax is not None:
        print(f"worst input: {result.argmax!r}")
    return 0 if result.passed else 1


def _verify_setup(args):
    """Resolve programs + environment for ``repro verify``.

    Returns (target, rewrite, live_outs, ranges, validation_ranges,
    memory, concrete_gp, base_testcase_factory).
    """
    from repro.x86.memory import Memory

    if args.kernel:
        if args.programs and len(args.programs) > 1:
            raise SystemExit("--kernel takes at most one program file "
                             "(the rewrite)")
        rewrite_path = args.programs[0] if args.programs else None
        if args.kernel == "delta":
            from repro.kernels.aek import vector as V

            spec = V.delta_kernel()
            rewrite = _load_program(rewrite_path) if rewrite_path \
                else V.delta_rewrite()
            ranges = dict(spec.ranges)
            ranges.update(V.delta_mem_ranges())
            return (spec.program, rewrite, list(spec.live_outs), ranges,
                    dict(spec.ranges), Memory(V.aek_segments()),
                    dict(V.CONCRETE_GP_INDICES), spec.base_testcase)
        from repro.kernels.libimf import LIBIMF_KERNELS

        if args.kernel not in LIBIMF_KERNELS:
            known = ", ".join(sorted(LIBIMF_KERNELS) | {"delta"})
            raise SystemExit(f"unknown --kernel {args.kernel!r} "
                             f"(known: {known})")
        factory = LIBIMF_KERNELS[args.kernel]
        spec = factory()
        if rewrite_path:
            rewrite = _load_program(rewrite_path)
        elif args.degree is not None:
            rewrite = factory(args.degree).program
        else:
            rewrite = spec.program
        ranges = dict(spec.ranges)
        return (spec.program, rewrite, list(spec.live_outs), ranges,
                dict(ranges), None, None, spec.base_testcase)

    if len(args.programs) != 2:
        raise SystemExit("verify needs TARGET and REWRITE files "
                         "(or --kernel NAME)")
    if not args.live_out or not args.range:
        raise SystemExit("verify needs --live-out and --range for "
                         "file-based programs")
    target = _load_program(args.programs[0])
    rewrite = _load_program(args.programs[1])
    ranges = _parse_ranges(args.range)
    midpoints = {loc: (lo + hi) / 2 for loc, (lo, hi) in ranges.items()}
    return (target, rewrite, args.live_out, ranges, dict(ranges), None,
            None, lambda: TestCase.from_values(midpoints))


def cmd_verify(args) -> int:
    from repro.core import serialize as S
    from repro.verify import checker
    from repro.verify.bnb import BnBConfig, BnBVerifier, seeds_from_validation
    from repro.verify.certificate import Certificate

    (target, rewrite, live_outs, ranges, val_ranges, memory,
     concrete_gp, base_testcase) = _verify_setup(args)

    if args.check_cert:
        try:
            cert = Certificate.load(args.check_cert)
        except OSError as exc:
            print(f"cannot read certificate: {exc}")
            return 2
        except (ValueError, KeyError, TypeError) as exc:
            print(f"certificate is malformed: {type(exc).__name__}: {exc}")
            return 2
        report = checker.check(cert, target, rewrite, memory=memory,
                               concrete_gp=concrete_gp)
        status = "VALID" if report.ok else "REJECTED"
        print(f"certificate: {status} ({report.leaves_checked} leaves, "
              f"rechecked bound {report.rechecked_bound:.6g} ULPs, "
              f"{report.stats.concrete_bit_ops} concrete / "
              f"{report.stats.widened_bit_ops} widened bit ops)")
        for failure in report.failures:
            print(f"  - {failure}")
        return 0 if report.ok else 1

    if args.smt and args.domain != "relational":
        print("--smt requires --domain relational (the SMT tier cross-"
              "checks paired expression DAGs)")
        return 2

    verifier = BnBVerifier(target, rewrite, live_outs, ranges,
                           memory=memory, concrete_gp=concrete_gp,
                           profile=args.profile_transfers,
                           domain=args.domain)
    quiet = args.json

    seeds = ()
    if args.seed_proposals:
        validator = Validator(target, rewrite, live_outs, val_ranges,
                              base_testcase)
        validation = validator.validate(ValidationConfig(
            max_proposals=args.seed_proposals, seed=args.seed))
        seeds = seeds_from_validation(validation, verifier.dims)
        if not quiet:
            print(f"# validator: max error {validation.max_err:.6g} ULPs "
                  f"({validation.samples} samples, "
                  f"converged={validation.converged}) -> "
                  f"{len(seeds)} counterexample seed(s)")

    config = BnBConfig(max_boxes=args.budget, deadline=args.deadline,
                       target_gap=args.target_gap, seeds=seeds)
    result = verifier.run(config)
    if not quiet:
        print(f"certified bound: {result.bound_ulps:.6g} ULPs "
              f"(complete={result.complete}, domain={result.domain})")
        if result.per_location_bounds:
            parts = ", ".join(f"{loc} <= {b:.6g}"
                              for loc, b in
                              sorted(result.per_location_bounds.items()))
            print(f"# per-live-out bounds: {parts}")
        print(f"# lower bound {result.lower_bound:.6g} ULPs, "
              f"gap {result.gap:.3g}, termination: {result.termination}")
        print(f"# {result.boxes_explored} boxes explored, "
              f"{result.boxes_pruned} pruned, {len(result.leaves)} leaves, "
              f"frontier peak {result.max_frontier}, "
              f"{result.rounds} rounds, {result.wall_time:.2f}s "
              f"({result.boxes_per_second:,.0f} boxes/s)")
        print(f"# bit ops: {result.stats.concrete_bit_ops} concrete, "
              f"{result.stats.widened_bit_ops} widened")
        if args.profile_transfers and result.stats.op_seconds:
            total = sum(result.stats.op_seconds.values()) or 1.0
            top = sorted(result.stats.op_seconds.items(),
                         key=lambda kv: -kv[1])[:8]
            parts = ", ".join(f"{op} {secs / total:.0%}"
                              for op, secs in top)
            print(f"# transfer time by opcode: {parts}")

    exhaustive = None
    if args.exhaustive_bits:
        from repro.verify import exhaustive_check

        exact = exhaustive_check(target, rewrite, live_outs, val_ranges,
                                 base_testcase,
                                 bits_per_input=args.exhaustive_bits,
                                 backend=args.backend)
        exhaustive = {
            "max_ulps": S.enc_float(exact.max_ulps),
            "cases_checked": exact.cases_checked,
            "bits_per_input": args.exhaustive_bits,
            "backend": args.backend,
            "dominated": bool(exact.max_ulps <= result.bound_ulps),
        }
        if not quiet:
            print(f"# exhaustive ({args.exhaustive_bits} bits/input, "
                  f"{args.backend}): max {exact.max_ulps:.6g} ULPs over "
                  f"{exact.cases_checked:,} cases, "
                  f"dominated={exhaustive['dominated']}")

    smt_outcome = None
    if args.smt:
        from repro.verify.relational import smt_available, smt_cross_check

        if not smt_available():
            smt_outcome = {"status": "unknown", "mode": "none",
                           "detail": "z3 is not installed",
                           "counterexample": {}}
            if not quiet:
                print("# smt: skipped (z3 is not installed)")
        else:
            outcome = smt_cross_check(verifier.transfer, result.bound_ulps)
            smt_outcome = outcome.to_dict()
            if not quiet:
                print(f"# smt: {outcome.status} ({outcome.mode}) "
                      f"{outcome.detail}")

    if args.emit_cert:
        cert = verifier.certificate(result, config=config)
        cert.save(args.emit_cert)
        if not quiet:
            print(f"# certificate: {args.emit_cert} "
                  f"({cert.size_bytes:,} bytes, {len(cert.leaves)} leaves)")
    if args.json:
        payload = {
            "domain": result.domain,
            "bound_ulps": S.enc_float(result.bound_ulps),
            "lower_bound": S.enc_float(result.lower_bound),
            "gap": S.enc_float(result.gap),
            "complete": result.complete,
            "termination": result.termination,
            "boxes_explored": result.boxes_explored,
            "boxes_pruned": result.boxes_pruned,
            "leaves": len(result.leaves),
            "rounds": result.rounds,
            "max_frontier": result.max_frontier,
            "seeds_covered": result.seeds_covered,
            "unsupported": result.unsupported,
            "per_location": {loc: S.enc_float(v)
                             for loc, v in result.per_location.items()},
            "per_location_bounds": {
                loc: S.enc_float(v)
                for loc, v in result.per_location_bounds.items()},
            "wall_time": result.wall_time,
            "boxes_per_second": result.boxes_per_second,
            "stats": {
                "concrete_bit_ops": result.stats.concrete_bit_ops,
                "widened_bit_ops": result.stats.widened_bit_ops,
                "transfer_seconds": result.stats.transfer_seconds,
                "op_counts": dict(result.stats.op_counts),
                "op_seconds": dict(result.stats.op_seconds),
            },
        }
        if exhaustive is not None:
            payload["exhaustive"] = exhaustive
        if smt_outcome is not None:
            payload["smt"] = smt_outcome
        _json_out(payload)
    return 0 if result.complete else 1


# ---------------------------------------------------------------------------
# Campaign service commands


def _parse_etas(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SystemExit(f"--etas needs a comma-separated float list, "
                         f"got {text!r}")


def _json_out(payload) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _resolve_job_prefix(ledger, prefix: str) -> str:
    matches = ledger.resolve_prefix(prefix)
    if not matches:
        raise SystemExit(f"no job matches {prefix!r}")
    if len(matches) > 1:
        # Refuse to guess; show the collisions so the caller can extend
        # the prefix by a character or two.
        listing = "\n".join(f"  {digest}" for digest in matches)
        raise SystemExit(f"{prefix!r} is ambiguous "
                         f"({len(matches)} jobs match):\n{listing}")
    return matches[0]


def _store_or_url(args) -> None:
    if (args.store is None) == (args.url is None):
        raise SystemExit("exactly one of --store and --url is required")


def cmd_submit(args) -> int:
    from repro.service import resolve_kernel
    from repro.service.campaign import CampaignSpec, submit_campaign

    _store_or_url(args)
    for name in args.kernel:
        try:
            resolve_kernel(name)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]) if exc.args else
                             f"unknown kernel {name!r}")
    etas = _parse_etas(args.etas)
    kernels = tuple((name, eta) for name in args.kernel for eta in etas)
    stages = tuple(args.stages.split(",")) if args.stages else \
        ("search", "select", "validate", "verify")
    if args.catalog and "catalog" not in stages:
        stages = stages + ("catalog",)
    spec = CampaignSpec(
        kernels=kernels, chains=args.chains, proposals=args.proposals,
        testcases=args.testcases, seed=args.seed, stages=stages,
        validate_proposals=args.validate_proposals,
        verify_budget=args.verify_budget, backend=args.backend,
        verify_domain=args.verify_domain)
    if args.url:
        from repro.service.api import ServiceClient

        out = ServiceClient(args.url).submit_campaign(
            spec, name=args.name, max_attempts=args.max_attempts)
        cid, jobs = out["campaign"], out["jobs"]
        counts = {"jobs": len(jobs), "new": out["new"],
                  "reused": out["reused"]}
    else:
        from repro.service import Ledger

        with Ledger(args.store) as ledger:
            cid, counts = submit_campaign(ledger, spec, name=args.name,
                                          max_attempts=args.max_attempts)
            jobs = [{"digest": digest, "role": role}
                    for digest, role in ledger.campaign_roles(cid)]
    if args.json:
        _json_out({"campaign": cid, "name": args.name, **counts,
                   "jobs": jobs})
    else:
        print(f"campaign {cid}: {counts['new']} new job(s), "
              f"{counts['reused']} reused")
        for job in jobs:
            print(f"  {job['digest'][:12]}  {job['role']}")
    return 0


def cmd_serve(args) -> int:
    from repro.service import Ledger, Scheduler

    def narrate(digest, event, info):
        if args.json or args.quiet:
            return
        label = digest[:12] if digest else "-"
        detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
        print(f"[{event}] {label} {detail}".rstrip(), flush=True)

    server = None
    on_event = None if args.quiet else narrate
    if args.http is not None:
        from repro.service.api import ApiServer

        server = ApiServer(args.store, host=args.host,
                           port=args.http).start()
        if not args.json:
            print(f"serving HTTP on {server.url}", flush=True)

        def on_event(digest, event, info):  # noqa: F811 - http variant
            server.bus.publish({"digest": digest, "event": event,
                                "info": info})
            narrate(digest, event, info)

    try:
        with Ledger(args.store) as ledger:
            scheduler = Scheduler(
                ledger, jobs=args.jobs,
                checkpoint_every=args.checkpoint_every,
                checkpoint_rounds=args.checkpoint_rounds,
                checkpoint_seconds=args.checkpoint_seconds,
                retry_base=args.retry_base,
                task_timeout=args.task_timeout,
                lease=args.lease,
                dispatch=args.dispatch != "none",
                on_event=on_event)
            # An HTTP server exists to accept future submissions; idle
            # is not exit unless the operator said otherwise.
            until_idle = not args.wait and args.http is None
            counts = scheduler.run(until_idle=until_idle,
                                   poll_interval=args.poll_interval)
    finally:
        if server is not None:
            server.stop()
    if args.json:
        _json_out({"counts": counts})
    else:
        print(f"idle: {counts['done']} done, {counts['failed']} failed, "
              f"{counts['pending']} pending, {counts['running']} running")
    return 0 if counts["failed"] == 0 else 1


def cmd_agent(args) -> int:
    from repro.service.agent import run_agent

    _store_or_url(args)

    def narrate(digest, event, info):
        if args.json:
            return
        label = digest[:12] if digest else "-"
        detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
        print(f"[{event}] {label} {detail}".rstrip(), flush=True)

    counts = run_agent(
        url=args.url, store=args.store, workdir=args.workdir,
        jobs=args.jobs, lease=args.lease,
        checkpoint_every=args.checkpoint_every,
        checkpoint_rounds=args.checkpoint_rounds,
        checkpoint_seconds=args.checkpoint_seconds,
        retry_base=args.retry_base, task_timeout=args.task_timeout,
        on_event=None if args.quiet else narrate,
        until_idle=not args.wait, poll_interval=args.poll_interval)
    if args.json:
        _json_out({"counts": counts})
    else:
        print(f"agent done: {counts['done']} done, "
              f"{counts['failed']} failed, {counts['pending']} pending, "
              f"{counts['running']} running")
    return 0 if counts["failed"] == 0 else 1


def _status_remote(args) -> int:
    from repro.service.api import ServiceClient

    client = ServiceClient(args.url)
    doc = client.status()
    campaigns = []
    for row in doc["campaigns"]:
        if args.campaign and row["campaign"] != args.campaign:
            continue
        detail = client.campaign(row["campaign"])
        campaigns.append({"campaign": row["campaign"],
                          "name": row["name"],
                          "counts": detail["counts"],
                          "jobs": detail["jobs"]})
    totals = doc["totals"]
    if args.json:
        _json_out({"totals": totals, "campaigns": campaigns})
        return 0
    print(f"jobs: {totals['done']} done, {totals['failed']} failed, "
          f"{totals['pending']} pending, {totals['running']} running")
    for campaign in campaigns:
        counts = campaign["counts"]
        print(f"campaign {campaign['campaign']} ({campaign['name']}): "
              f"{counts['done']}/{sum(counts.values())} done")
        for job in campaign["jobs"]:
            line = (f"  {job['digest'][:12]}  {job['state']:<8} "
                    f"{job['role']}")
            if job["error"]:
                line += f"  [{job['error']}]"
            print(line)
    return 0


def cmd_status(args) -> int:
    from repro.service import Ledger

    _store_or_url(args)
    if args.url:
        return _status_remote(args)
    with Ledger(args.store) as ledger:
        campaigns = []
        for row in ledger.campaigns():
            if args.campaign and row["id"] != args.campaign:
                continue
            jobs = [{"digest": digest, "role": role,
                     **{k: ledger.job(digest)[k]
                        for k in ("kind", "state", "attempts", "error")}}
                    for digest, role in ledger.campaign_roles(row["id"])]
            campaigns.append({"campaign": row["id"], "name": row["name"],
                              "counts": ledger.counts(campaign=row["id"]),
                              "jobs": jobs})
        totals = ledger.counts()
    if args.json:
        _json_out({"totals": totals, "campaigns": campaigns})
        return 0
    print(f"jobs: {totals['done']} done, {totals['failed']} failed, "
          f"{totals['pending']} pending, {totals['running']} running")
    for campaign in campaigns:
        counts = campaign["counts"]
        print(f"campaign {campaign['campaign']} ({campaign['name']}): "
              f"{counts['done']}/{sum(counts.values())} done")
        for job in campaign["jobs"]:
            line = (f"  {job['digest'][:12]}  {job['state']:<8} "
                    f"{job['role']}")
            if job["error"]:
                line += f"  [{job['error']}]"
            print(line)
    return 0


def _artifacts_remote(args) -> int:
    import os

    from repro.service.api import ServiceClient

    client = ServiceClient(args.url)
    doc = client.job(args.job)
    digest, named = doc["digest"], doc["artifacts"]
    if args.name:
        if args.name not in named:
            raise SystemExit(
                f"job {digest[:12]} has no artifact {args.name!r} "
                f"(has: {', '.join(sorted(named)) or 'none'})")
        sys.stdout.write(
            client.artifact(digest, args.name).decode("utf-8"))
        return 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name in named:
            with open(os.path.join(args.out, name), "wb") as fh:
                fh.write(client.artifact(digest, name))
    if args.json:
        _json_out({"job": digest, "artifacts": named})
    else:
        print(f"job {digest}")
        for name, content_digest in named.items():
            print(f"  {content_digest[:12]}  {name}")
    return 0


def cmd_artifacts(args) -> int:
    import os

    from repro.service import Ledger

    _store_or_url(args)
    if args.url:
        return _artifacts_remote(args)
    with Ledger(args.store) as ledger:
        digest = _resolve_job_prefix(ledger, args.job)
        named = ledger.artifacts_of(digest)
        if args.name:
            if args.name not in named:
                raise SystemExit(
                    f"job {digest[:12]} has no artifact {args.name!r} "
                    f"(has: {', '.join(sorted(named)) or 'none'})")
            sys.stdout.write(
                ledger.get_artifact(named[args.name]).decode("utf-8"))
            return 0
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for name, content_digest in named.items():
                with open(os.path.join(args.out, name), "wb") as fh:
                    fh.write(ledger.get_artifact(content_digest))
        if args.json:
            _json_out({"job": digest, "artifacts": named,
                       "telemetry": ledger.telemetry_of(digest)})
        else:
            print(f"job {digest}")
            for name, content_digest in named.items():
                print(f"  {content_digest[:12]}  {name}")
    return 0


# ---------------------------------------------------------------------------
# Catalog commands


def _only_campaign(ledger) -> str:
    campaigns = ledger.campaigns()
    if len(campaigns) == 1:
        return campaigns[0]["id"]
    if not campaigns:
        raise SystemExit("store has no campaigns")
    listing = "\n".join(f"  {row['id']}  {row['name']}"
                        for row in campaigns)
    raise SystemExit(f"store has {len(campaigns)} campaigns; pick one "
                     f"with --campaign:\n{listing}")


def _local_catalog(ledger, campaign):
    from repro.catalog import load_catalog_bytes, resolve_catalog

    digest = resolve_catalog(ledger, campaign)
    if digest is None:
        where = f"campaign {campaign}" if campaign else "this store"
        raise SystemExit(f"no catalog for {where} "
                         f"(run `repro catalog build` first)")
    return digest, load_catalog_bytes(ledger.get_artifact(digest))


def _print_entries(entries) -> None:
    print(f"{'id':<24} {'error_ulps':>12} {'latency':>8} "
          f"{'speedup':>8}  frontier  certificate")
    from repro.core.serialize import dec_float

    for entry in entries:
        cert = entry.get("certificate")
        print(f"{entry['id']:<24} {dec_float(entry['error_ulps']):>12.6g} "
              f"{entry['latency']:>8} {dec_float(entry['speedup']):>8.2f}"
              f"  {'yes' if entry['on_frontier'] else 'no ':<8}"
              f"  {cert[:12] if cert else '-'}")


def cmd_catalog_build(args) -> int:
    from repro.catalog import (CatalogError, build_catalog,
                               catalog_summary, measure_catalog,
                               save_catalog, store_catalog,
                               verify_catalog)

    _store_or_url(args)
    if args.url:
        for flag in ("check", "measure", "out"):
            if getattr(args, flag):
                raise SystemExit(f"--{flag} needs direct store access; "
                                 f"use --store")
        from repro.service.api import ServiceClient

        if not args.campaign:
            raise SystemExit("--url builds need an explicit --campaign")
        out = ServiceClient(args.url).catalog_build(args.campaign)
        if args.json:
            _json_out(out)
        else:
            print(f"catalog {out['digest'][:16]} "
                  f"({len(out['summary']['kernels'])} kernel(s), "
                  f"{out['summary']['skipped']} skipped cell(s))")
        return 0

    from repro.service import Ledger

    with Ledger(args.store) as ledger:
        cid = args.campaign or _only_campaign(ledger)
        try:
            body = build_catalog(ledger, cid)
        except CatalogError as exc:
            raise SystemExit(f"catalog build failed: {exc}")
        digest = store_catalog(ledger, body, campaign=cid)
        failures = []
        if args.check:
            failures = verify_catalog(ledger, body)
        measurements = None
        if args.measure:
            measurements = measure_catalog(
                ledger, body, backend=args.measure_backend,
                tests=args.measure_tests, seed=args.seed)
        if args.out:
            save_catalog(args.out, body, measurements)
        summary = catalog_summary(body)
    if args.json:
        payload = {"campaign": cid, "digest": digest, "summary": summary,
                   "check_failures": failures}
        if measurements is not None:
            payload["measurements"] = measurements
        _json_out(payload)
    else:
        print(f"catalog {digest[:16]} for campaign {cid}")
        for name, info in sorted(summary["kernels"].items()):
            print(f"  {name}: {info['frontier']}/{info['entries']} on "
                  f"frontier, max speedup {info['max_speedup']:.2f}x")
        if summary["skipped"]:
            print(f"  skipped cells: {summary['skipped']}")
        if args.check:
            verdict = "VALID" if not failures else "REJECTED"
            print(f"  certificates: {verdict}")
            for failure in failures:
                print(f"    - {failure}")
        if measurements is not None:
            for entry_id, ns in sorted(measurements["entries"].items()):
                print(f"  measured {entry_id}: {ns:,.0f} ns/test "
                      f"({measurements['backend']})")
    return 1 if failures else 0


def cmd_catalog_query(args) -> int:
    from repro.catalog import CatalogError, query_catalog

    _store_or_url(args)
    if args.url:
        from repro.service.api import ServiceClient

        out = ServiceClient(args.url).catalog(
            campaign=args.campaign, kernel=args.kernel,
            max_error=args.max_error, frontier=args.frontier)
        digest, entries = out["digest"], out.get("entries")
        if entries is None:
            # No filters: the server answered with a summary; re-fetch
            # the full document for a uniform entry listing.
            doc = ServiceClient(args.url).catalog(
                campaign=args.campaign, full=True)
            entries = query_catalog(doc["document"]["catalog"],
                                    frontier_only=args.frontier)
    else:
        from repro.service import Ledger

        with Ledger(args.store) as ledger:
            digest, body = _local_catalog(ledger, args.campaign)
        try:
            entries = query_catalog(body, kernel=args.kernel,
                                    max_error=args.max_error,
                                    frontier_only=args.frontier)
        except CatalogError as exc:
            raise SystemExit(str(exc))
    if args.json:
        _json_out({"digest": digest, "entries": entries})
    else:
        print(f"catalog {digest[:16]}: {len(entries)} entries")
        _print_entries(entries)
    return 0


def cmd_catalog_select(args) -> int:
    from repro.catalog import (CatalogError, parse_workload_spec,
                               select_for_budget)
    from repro.core.serialize import dec_float

    _store_or_url(args)
    if args.url:
        from repro.service.api import ServiceClient

        try:
            result = ServiceClient(args.url).catalog_select(
                budget=args.budget, workload=args.workload,
                campaign=args.campaign)
        except Exception as exc:
            from repro.service.api import ServiceError

            if isinstance(exc, ServiceError):
                raise SystemExit(exc.message)
            raise
    else:
        from repro.service import Ledger

        with Ledger(args.store) as ledger:
            digest, body = _local_catalog(ledger, args.campaign)
        try:
            workload = parse_workload_spec(args.workload)
            # Same shape as the HTTP answer: the catalog digest leads,
            # so local and --url invocations are byte-comparable.
            result = {"digest": digest,
                      **select_for_budget(body, workload, args.budget)}
        except CatalogError as exc:
            raise SystemExit(str(exc))
    if args.json:
        _json_out(result)
        return 0
    print(f"budget {dec_float(result['budget']):g} ULPs -> certified "
          f"composite bound {dec_float(result['bound']):g} ULPs")
    print(f"workload latency {result['latency']} vs target "
          f"{result['target_latency']} cycles "
          f"({dec_float(result['speedup']):.2f}x)")
    for name in sorted(result["assignment"]):
        pick = result["assignment"][name]
        print(f"  {name}: {pick['id']} "
              f"(error {dec_float(pick['error_ulps']):g}, "
              f"latency {pick['latency']}, calls {pick['calls']})")
    return 0


def cmd_run(args) -> int:
    program = _load_program(args.program)
    from repro.core.runner import Runner
    from repro.x86.testcase import decode_from

    tc = TestCase.from_values(_parse_values(args.set))
    runner = Runner(args.live_out)
    outputs, signal = runner.run_program(program, tc)
    if signal is not None:
        print(f"signal: {signal.value}")
        return 1
    for loc, bits in outputs.items():
        print(f"{loc} = {decode_from(loc, bits)!r}  (0x{bits:x})")
    return 0


def cmd_trace(args) -> int:
    program = _load_program(args.program)
    from repro.x86.trace import trace_program

    tc = TestCase.from_values(_parse_values(args.set))
    trace = trace_program(program, tc.build_state())
    print(trace.render())
    return 1 if trace.signal is not None else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="superoptimize an assembly file")
    opt.add_argument("program")
    opt.add_argument("--live-out", nargs="+", required=True)
    opt.add_argument("--range", nargs="+", required=True,
                     metavar="LOC=LO:HI")
    opt.add_argument("--eta", type=float, default=0.0)
    opt.add_argument("--k", type=float, default=1.0)
    opt.add_argument("--proposals", type=int, default=10_000)
    opt.add_argument("--testcases", type=int, default=32)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--backend", default="jit", choices=known_backends(),
                     help="execution backend for the cost function")
    opt.add_argument("--restarts", type=_positive_int, default=1,
                     metavar="N",
                     help="independent chains with seeds seed, seed+1, ... "
                          "(the paper runs 16)")
    opt.add_argument("--jobs", type=_nonnegative_int, default=0, metavar="N",
                     help="worker processes for the chains; 0 (default) "
                          "auto-sizes to min(cpu_count, restarts)")
    opt.set_defaults(fn=cmd_optimize)

    val = sub.add_parser("validate",
                         help="bound the ULP error between two programs")
    val.add_argument("target")
    val.add_argument("rewrite")
    val.add_argument("--live-out", nargs="+", required=True)
    val.add_argument("--range", nargs="+", required=True,
                     metavar="LOC=LO:HI")
    val.add_argument("--eta", type=float, default=0.0)
    val.add_argument("--proposals", type=int, default=20_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--backend", default="jit", choices=known_backends(),
                     help="execution backend for error evaluation")
    val.set_defaults(fn=cmd_validate)

    ver = sub.add_parser(
        "verify",
        help="sound branch-and-bound ULP bound with checkable certificates")
    ver.add_argument("programs", nargs="*", metavar="PROGRAM",
                     help="TARGET and REWRITE files; with --kernel, at "
                          "most one file (the rewrite)")
    ver.add_argument("--kernel",
                     help="built-in kernel: sin, cos, tan, log, exp, "
                          "exp_s3d, or delta (brings its own ranges, "
                          "live-outs, and memory image)")
    ver.add_argument("--degree", type=int, default=None,
                     help="with --kernel: verify against the same kernel "
                          "rebuilt at this polynomial degree")
    ver.add_argument("--live-out", nargs="+")
    ver.add_argument("--range", nargs="+", metavar="LOC=LO:HI")
    ver.add_argument("--sound", action="store_true",
                     help="run the sound branch-and-bound verifier "
                          "(the default and only engine; flag kept for "
                          "recipe clarity)")
    ver.add_argument("--budget", type=_positive_int, default=256,
                     metavar="N", help="box-refinement budget")
    ver.add_argument("--deadline", type=float, default=None, metavar="SEC",
                     help="wall-clock refinement deadline")
    ver.add_argument("--target-gap", type=float, default=None, metavar="G",
                     help="stop once bound <= lower + G*max(lower, 1)")
    ver.add_argument("--domain", choices=("separate", "relational"),
                     default="separate",
                     help="'separate' = independent output hulls; "
                          "'relational' = product-program domain bounding "
                          "the target-vs-rewrite difference directly "
                          "(never looser on the same partition)")
    ver.add_argument("--smt", action="store_true",
                     help="cross-check the certified bound with the "
                          "optional z3 SMT tier (bit-precise FP with a "
                          "real-relaxation fallback; requires --domain "
                          "relational)")
    ver.add_argument("--profile-transfers", action="store_true",
                     help="record per-opcode transfer timing (adds "
                          "overhead; surfaces in --json op_seconds)")
    ver.add_argument("--json", action="store_true",
                     help="emit the full result as JSON instead of text")
    ver.add_argument("--exhaustive-bits", type=_nonnegative_int, default=0,
                     metavar="N",
                     help="also sweep an N-bit-per-input exhaustive grid "
                          "as ground truth (0 = skip)")
    ver.add_argument("--backend", default="vector",
                     choices=known_backends(),
                     help="execution backend for --exhaustive-bits")
    ver.add_argument("--seed-proposals", type=_nonnegative_int, default=0,
                     metavar="N",
                     help="MCMC validator proposals mining counterexample "
                          "seeds before the search (0 = no seeding)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--emit-cert", metavar="PATH",
                     help="write the leaf-partition certificate as JSON")
    ver.add_argument("--check-cert", metavar="PATH",
                     help="independently re-verify a certificate instead "
                          "of searching")
    ver.set_defaults(fn=cmd_verify)

    sp = sub.add_parser(
        "submit",
        help="record an optimization campaign in a service store")
    sp.add_argument("--store", default=None, metavar="DIR",
                    help="service store directory (created if missing)")
    sp.add_argument("--url", default=None, metavar="URL",
                    help="submit over HTTP to a `repro serve --http` "
                         "service instead of a local store")
    sp.add_argument("--kernel", action="append", required=True,
                    metavar="NAME",
                    help="built-in kernel (repeatable); each kernel is "
                         "swept over --etas")
    sp.add_argument("--etas", default="0", metavar="E1,E2,...",
                    help="comma-separated eta sweep (default: 0)")
    sp.add_argument("--chains", type=_positive_int, default=1)
    sp.add_argument("--proposals", type=_positive_int, default=2_000)
    sp.add_argument("--testcases", type=_positive_int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stages", default=None,
                    metavar="search,select,...",
                    help="stage prefix to run (default: all four)")
    sp.add_argument("--validate-proposals", type=_positive_int,
                    default=2_000)
    sp.add_argument("--verify-budget", type=_positive_int, default=128)
    sp.add_argument("--verify-domain", choices=("separate", "relational"),
                    default="separate",
                    help="abstract domain for bnb verify cells")
    sp.add_argument("--backend", default="jit", choices=known_backends(),
                     help="execution backend for the campaign's "
                          "search jobs")
    sp.add_argument("--max-attempts", type=_positive_int, default=3)
    sp.add_argument("--name", default="campaign")
    sp.add_argument("--catalog", action="store_true",
                    help="append the catalog stage: one terminal job "
                         "that assembles the certified Pareto catalog "
                         "once every cell finishes")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_submit)

    sv = sub.add_parser(
        "serve",
        help="run the campaign scheduler until the store is idle")
    sv.add_argument("--store", required=True, metavar="DIR")
    sv.add_argument("--jobs", type=_nonnegative_int, default=1,
                    metavar="N",
                    help="worker processes (0 = cpu count, 1 = inline)")
    sv.add_argument("--checkpoint-every", type=_nonnegative_int,
                    default=500, metavar="N",
                    help="proposals between search/validate checkpoints "
                         "(0 disables)")
    sv.add_argument("--checkpoint-rounds", type=_nonnegative_int,
                    default=4, metavar="N",
                    help="refinement rounds between verifier checkpoints")
    sv.add_argument("--checkpoint-seconds", type=float, default=1.0,
                    metavar="SEC",
                    help="minimum wall-clock spacing between verifier "
                         "checkpoints (0 = every eligible round)")
    sv.add_argument("--retry-base", type=float, default=0.25,
                    metavar="SEC",
                    help="backoff base: retry n waits base * 2^(n-1)")
    sv.add_argument("--task-timeout", type=float, default=None,
                    metavar="SEC", help="per-job deadline")
    sv.add_argument("--poll-interval", type=float, default=0.25,
                    metavar="SEC")
    sv.add_argument("--lease", type=float, default=15.0, metavar="SEC",
                    help="lease granted per claim; a dead scheduler's "
                         "jobs requeue after this long (default: 15)")
    sv.add_argument("--http", type=int, default=None, metavar="PORT",
                    help="also serve the HTTP API on this port (0 picks "
                         "a free one; implies --wait)")
    sv.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                    help="bind address for --http (default: 127.0.0.1)")
    sv.add_argument("--dispatch", choices=("local", "none"),
                    default="local",
                    help="'none' turns this process into a pure "
                         "coordinator (reap + HTTP), leaving execution "
                         "to fleet agents")
    sv.add_argument("--wait", action="store_true",
                    help="keep serving after the store is idle (until "
                         "SIGINT/SIGTERM)")
    sv.add_argument("--quiet", action="store_true")
    sv.add_argument("--json", action="store_true")
    sv.set_defaults(fn=cmd_serve)

    ag = sub.add_parser(
        "agent",
        help="run a fleet agent that pulls and executes leased jobs")
    ag.add_argument("--store", default=None, metavar="DIR",
                    help="shared-store mode: open this ledger directly")
    ag.add_argument("--url", default=None, metavar="URL",
                    help="HTTP mode: pull leases from a `repro serve "
                         "--http` service")
    ag.add_argument("--workdir", default=None, metavar="DIR",
                    help="scratch directory for HTTP-mode checkpoints "
                         "(default: a fresh temp dir)")
    ag.add_argument("--jobs", type=_nonnegative_int, default=1,
                    metavar="N",
                    help="worker processes (0 = cpu count, 1 = inline)")
    ag.add_argument("--lease", type=float, default=15.0, metavar="SEC")
    ag.add_argument("--checkpoint-every", type=_nonnegative_int,
                    default=500, metavar="N")
    ag.add_argument("--checkpoint-rounds", type=_nonnegative_int,
                    default=4, metavar="N")
    ag.add_argument("--checkpoint-seconds", type=float, default=1.0,
                    metavar="SEC")
    ag.add_argument("--retry-base", type=float, default=0.25,
                    metavar="SEC")
    ag.add_argument("--task-timeout", type=float, default=None,
                    metavar="SEC")
    ag.add_argument("--poll-interval", type=float, default=0.25,
                    metavar="SEC")
    ag.add_argument("--wait", action="store_true",
                    help="keep pulling after the service goes idle")
    ag.add_argument("--quiet", action="store_true")
    ag.add_argument("--json", action="store_true")
    ag.set_defaults(fn=cmd_agent)

    st = sub.add_parser("status", help="show job/campaign states")
    st.add_argument("--store", default=None, metavar="DIR")
    st.add_argument("--url", default=None, metavar="URL",
                    help="query a `repro serve --http` service")
    st.add_argument("--campaign", default=None, metavar="ID")
    st.add_argument("--json", action="store_true")
    st.set_defaults(fn=cmd_status)

    ar = sub.add_parser("artifacts",
                        help="list or export a job's artifacts")
    ar.add_argument("--store", default=None, metavar="DIR")
    ar.add_argument("--url", default=None, metavar="URL",
                    help="fetch from a `repro serve --http` service")
    ar.add_argument("--job", required=True, metavar="DIGEST",
                    help="job digest (unique prefix accepted)")
    ar.add_argument("--name", default=None, metavar="FILE",
                    help="print one artifact to stdout")
    ar.add_argument("--out", default=None, metavar="DIR",
                    help="export all artifacts into a directory")
    ar.add_argument("--json", action="store_true")
    ar.set_defaults(fn=cmd_artifacts)

    ct = sub.add_parser(
        "catalog",
        help="build/query the certified (error, latency) Pareto "
             "catalog and select implementations under a budget")
    ctsub = ct.add_subparsers(dest="catalog_command", required=True)

    def _catalog_common(p):
        p.add_argument("--store", default=None, metavar="DIR")
        p.add_argument("--url", default=None, metavar="URL",
                       help="talk to a `repro serve --http` service")
        p.add_argument("--campaign", default=None, metavar="ID",
                       help="campaign whose catalog to use (default: "
                            "the store's only campaign / latest built)")
        p.add_argument("--json", action="store_true")

    cb = ctsub.add_parser(
        "build", help="assemble a finished campaign's catalog")
    _catalog_common(cb)
    cb.add_argument("--check", action="store_true",
                    help="re-validate every cited certificate with the "
                         "independent checker after assembly")
    cb.add_argument("--measure", action="store_true",
                    help="probe measured wall-clock latency per entry "
                         "(side-band data; never part of the catalog "
                         "digest)")
    cb.add_argument("--measure-backend", default="vector",
                    choices=known_backends())
    cb.add_argument("--measure-tests", type=_positive_int, default=256)
    cb.add_argument("--seed", type=int, default=0,
                    help="test-case seed for --measure")
    cb.add_argument("--out", default=None, metavar="PATH",
                    help="also write the catalog document (wrapper + "
                         "digest) to a JSON file")
    cb.set_defaults(fn=cmd_catalog_build)

    cq = ctsub.add_parser(
        "query", help="list catalog entries by kernel / error bound")
    _catalog_common(cq)
    cq.add_argument("--kernel", default=None, metavar="NAME")
    cq.add_argument("--max-error", type=float, default=None,
                    metavar="ULPS",
                    help="only entries whose certified bound fits")
    cq.add_argument("--frontier", action="store_true",
                    help="only non-dominated entries")
    cq.set_defaults(fn=cmd_catalog_query)

    cs = ctsub.add_parser(
        "select",
        help="pick one implementation per workload kernel under an "
             "end-to-end error budget")
    _catalog_common(cs)
    cs.add_argument("--budget", type=float, required=True, metavar="ULPS",
                    help="composite certified error budget")
    cs.add_argument("--workload", default="aek",
                    metavar="NAME|k1:c1,k2:c2",
                    help="workload preset (aek, s3d) or explicit "
                         "kernel:calls list")
    cs.set_defaults(fn=cmd_catalog_select)

    runp = sub.add_parser("run", help="execute a program on given inputs")
    runp.add_argument("program")
    runp.add_argument("--set", nargs="+", default=[], metavar="LOC=VALUE")
    runp.add_argument("--live-out", nargs="+", required=True)
    runp.set_defaults(fn=cmd_run)

    tr = sub.add_parser("trace",
                        help="execute with a per-instruction trace")
    tr.add_argument("program")
    tr.add_argument("--set", nargs="+", default=[], metavar="LOC=VALUE")
    tr.set_defaults(fn=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # output piped into head etc.
        return 0
    except Exception as exc:
        from repro.service.api import ServiceError

        if isinstance(exc, ServiceError):
            raise SystemExit(str(exc))
        raise


if __name__ == "__main__":
    raise SystemExit(main())
