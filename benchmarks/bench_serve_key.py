"""Cost of keying one served request, with and without the text memo.

Before the service can answer a repeat request from its result store it
needs the request's store key.  Keyed by structure, that is a parse, a
structural digest and a depth scan; keyed through the store's text memo
(``ResultStore.request_key``), a repeat text — the same netlist renamed
in its ``# name`` header, as the elfbench stream sends it — costs one
comment strip, one hash and two dict lookups (``make bench-key``).

For each elfbench serve pool (``arith``, ``industrial``, from
``elfbench/workloads.py``, read-only) this reports the median
milliseconds per request of both paths and a sha256 over the
``(store key, n_ands, level)`` each path produces.  The two digests
must be equal: the memo may only skip work, never change a key.

Merges one ``serve_key`` record per pool into ``BENCH_engine.json``
(``cpu_count`` stamped; records of other operators are preserved).
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_records import merge_bench_records  # noqa: E402
from elfbench import workloads  # noqa: E402
from repro.aig.io_bench import from_text, to_text  # noqa: E402
from repro.serve import ResultStore  # noqa: E402

POOLS = ("arith", "industrial")
SCRIPT = "b; rf"
ROUNDS = 3


def _renamed(text: str, name: str) -> str:
    _header, rest = text.split("\n", 1)
    return f"# {name}\n{rest}"


def _parse_key(store: ResultStore, text: str) -> tuple:
    """The structural path: parse, digest, depth."""
    g = from_text(text)
    return store.key(g, SCRIPT), g.n_ands, g.max_level()


def _digest(shapes: list) -> str:
    h = hashlib.sha256()
    for key, n_ands, level in shapes:
        h.update(repr((key, n_ands, level)).encode())
    return h.hexdigest()


def measure(pool_name: str) -> dict:
    pool = workloads.build(pool_name).pool
    texts = [to_text(g) for _name, g in pool]
    copies = [_renamed(text, f"{name}~1") for (name, _g), text in zip(pool, texts)]
    store = ResultStore(max_entries=len(texts))
    for text in texts:  # the first (cold) request of each circuit fills the memo
        store.request_key(text, SCRIPT)
    parse_s = [float("inf")] * len(texts)
    memo_s = [float("inf")] * len(texts)
    for _ in range(ROUNDS):
        parsed, memoized = [], []
        for i, copy in enumerate(copies):
            t0 = time.perf_counter()
            parsed.append(_parse_key(store, copy))
            t1 = time.perf_counter()
            memoized.append(store.request_key(copy, SCRIPT))
            t2 = time.perf_counter()
            parse_s[i] = min(parse_s[i], t1 - t0)
            memo_s[i] = min(memo_s[i], t2 - t1)
    parse_ms = 1000.0 * statistics.median(parse_s)
    memo_ms = 1000.0 * statistics.median(memo_s)
    return {
        "operator": "serve_key",
        "workload": pool_name,
        "requests": len(texts),
        "median_bytes": int(statistics.median(len(t) for t in texts)),
        "parse_key_ms": round(parse_ms, 4),
        "memo_key_ms": round(memo_ms, 4),
        "speedup": round(parse_ms / memo_ms, 2),
        "parse_key_digest": _digest(parsed),
        "memo_key_digest": _digest(memoized),
    }


def main() -> int:
    records = [measure(name) for name in POOLS]
    for r in records:
        same = r["parse_key_digest"] == r["memo_key_digest"]
        print(
            f"{r['workload']:>10}: {r['requests']} requests, parse+digest "
            f"{r['parse_key_ms']:.3f} ms, memo hit {r['memo_key_ms']:.3f} ms "
            f"({r['speedup']:.1f}x), keys {'equal' if same else 'DIFFER'} "
            f"({r['memo_key_digest'][:16]})"
        )
        if not same:
            print("bench-key: the memo changed a key", file=sys.stderr)
            return 1
    merge_bench_records(records, os.cpu_count() or 1)
    print(f"bench-key: merged {len(records)} serve_key records into BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
