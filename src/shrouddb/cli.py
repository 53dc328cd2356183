"""Command line interface.

Subcommands: ``run`` executes a benchmark experiment and writes a
metrics CSV, ``gen-data`` and ``gen-queries`` materialize workloads as
CSV files, ``serve`` exposes a storage backend over TCP.

``run`` exits 0 only when every query succeeded: a nonzero true count
that overflowed its noisy quota marks the query failed and the run
unsuccessful.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from shrouddb import bench
from shrouddb.errors import ShroudError

LN2 = math.log(2)


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one experiment and write metrics")
    p.add_argument("--mode", choices=["single", "gamma", "no-gamma", "linear-scan"],
                   default="gamma")
    p.add_argument("--n", type=int, default=1000, help="records to synthesize")
    p.add_argument("--domain", type=int, default=10000, help="search key domain size")
    p.add_argument("--record-size", type=int, default=1024, help="payload bytes")
    p.add_argument("--selectivity", type=float, default=0.005,
                   help="range span as a fraction of the domain")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=LN2, help="privacy budget")
    p.add_argument("--beta", type=float, default=2.0 ** -20,
                   help="allowed failure probability")
    p.add_argument("--fanout", type=int, default=16, help="sanitizer tree fanout")
    p.add_argument("--orams", type=int, default=1, help="number of ORAM partitions")
    p.add_argument("--storage", default="memory",
                   help="memory, disk, or remote=HOST:PORT")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--distribution", choices=list(bench.DISTRIBUTIONS),
                   default="uniform")
    p.add_argument("--histogram-file", help="lo,hi,count CSV for --distribution histogram")
    p.add_argument("--query-sampling", choices=list(bench.SAMPLINGS), default="uniform")
    p.add_argument("--query-kind", choices=list(bench.QUERY_KINDS), default="range")
    p.add_argument("--dataset", help="id,key CSV instead of synthesizing")
    p.add_argument("--queries-file", help="a,b CSV instead of sampling")
    p.add_argument("--data-dir", help="directory for the disk backend")
    p.add_argument("--fixed-clock", action="store_true",
                   help="deterministic 1 ms timings for reproducible output")


def _add_gen_data(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen-data", help="write an id,key dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--domain", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distribution", choices=list(bench.DISTRIBUTIONS),
                   default="uniform")
    p.add_argument("--histogram-file")
    p.add_argument("--out", required=True)


def _add_gen_queries(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen-queries", help="write an a,b query CSV")
    p.add_argument("--domain", type=int, required=True)
    p.add_argument("--selectivity", type=float, default=0.005)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-kind", choices=list(bench.QUERY_KINDS), default="range")
    p.add_argument("--query-sampling", choices=list(bench.SAMPLINGS), default="uniform")
    p.add_argument("--dataset", help="id,key CSV supplying keys for cdf sampling")
    p.add_argument("--out", required=True)


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="serve a storage backend over TCP")
    p.add_argument("--listen", default="127.0.0.1:0", help="HOST:PORT (port 0 picks one)")
    p.add_argument("--backend", choices=["memory", "disk"], default="memory")
    p.add_argument("--data-dir", help="directory for the disk backend")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = bench.ExperimentSpec(
        n=args.n, domain=args.domain, record_size=args.record_size,
        selectivity=args.selectivity, queries=args.queries, mode=args.mode,
        m=args.orams, epsilon=args.epsilon, beta=args.beta, fanout=args.fanout,
        storage=args.storage, seed=args.seed,
        distribution=args.distribution, histogram_file=args.histogram_file,
        query_sampling=args.query_sampling, query_kind=args.query_kind)
    clock = bench.FixedClock() if args.fixed_clock else time.perf_counter
    result = bench.run_experiment(spec, clock=clock, dataset=args.dataset,
                                  queries_file=args.queries_file,
                                  data_dir=args.data_dir)
    if args.out:
        result.save(args.out)
    s = result.summary
    print(f"mode={spec.mode} orams={spec.m} queries={len(result.rows)} "
          f"failed={s['failed']} true={s['true_count']} fetched={s['fetched_count']} "
          f"bytes_down={s['bytes_down']} elapsed_ms={s['elapsed_ms']}")
    if args.out:
        print(f"metrics written to {args.out}")
    return 0 if result.failed_queries == 0 else 1


def _cmd_gen_data(args: argparse.Namespace) -> int:
    db = bench.generate_dataset(args.n, args.domain, 1, args.seed,
                                args.distribution, args.histogram_file)
    bench.write_dataset(db, args.out)
    print(f"{len(db)} records written to {args.out}")
    return 0


def _cmd_gen_queries(args: argparse.Namespace) -> int:
    keys = None
    if args.query_sampling == "cdf":
        if not args.dataset:
            raise ShroudError("cdf sampling needs --dataset")
        db = bench.read_dataset(args.dataset, 1, args.seed)
        keys = [r.key for r in db.records]
    qs = bench.generate_queries(args.domain, args.selectivity, args.queries,
                                args.seed, args.query_kind, args.query_sampling,
                                keys)
    bench.write_queries(qs, args.out)
    print(f"{len(qs)} queries written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from shrouddb.server import serve

    host, _, port = args.listen.rpartition(":")
    if not host:
        raise ShroudError(f"--listen needs HOST:PORT, got {args.listen!r}")
    serve(host, int(port), args.backend, args.data_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shrouddb",
        description="Oblivious, volume-hiding outsourced database benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_gen_data(sub)
    _add_gen_queries(sub)
    _add_serve(sub)
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen-data": _cmd_gen_data,
        "gen-queries": _cmd_gen_queries,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ShroudError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
