"""Tests for the content-addressed serving cache: digest, keying, LRU.

The serving cache (`repro.serve.store.ResultStore`) is only sound if its
key components hold their invariants: the structural digest must see
through node numbering / names / dangling logic but *not* through
function changes; script normalization must merge alias spellings but
*not* flag changes; the registry version must fence entries to one
command surface.  The LRU bounds (store entries, engine `ResynthCache`
layers) guard the long-lived service against unbounded growth.
"""

import hashlib
import re

import pytest

from repro import obs
from repro.aig import AIG, structural_digest
from repro.aig.io_bench import from_text, to_text
from repro.engine import ResynthCache
from repro.errors import BenchFormatError, ReproError
from repro.opt import OptSession, run_flow
from repro.opt.registry import CommandSpec, default_registry
from repro.serve import CachedResult, ResultStore
from repro.serve import store as store_module
from repro.serve.store import text_key

from .util import random_aig


def _pair_tree(order: str) -> AIG:
    """(a&b) & (c&d), with the two inner ANDs built in ``order``."""
    g = AIG(f"pairs-{order}")
    a, b, c, d = (g.add_pi() for _ in range(4))
    if order == "ab-first":
        x = g.add_and(a, b)
        y = g.add_and(c, d)
    else:
        y = g.add_and(c, d)
        x = g.add_and(a, b)
    g.add_po(g.add_and(x, y))
    return g


class TestStructuralDigest:
    def test_construction_order_irrelevant(self):
        assert structural_digest(_pair_tree("ab-first")) == structural_digest(
            _pair_tree("cd-first")
        )

    def test_clone_and_reparse_preserve_digest(self):
        g = random_aig(6, 80, 3, seed=11, name="orig")
        d = structural_digest(g)
        assert structural_digest(g.clone(name="other")) == d
        assert structural_digest(from_text(to_text(g), name="reparsed")) == d
        assert g.structural_digest() == d  # the method is the function

    def test_dangling_logic_invisible(self):
        g = random_aig(6, 60, 2, seed=12)
        d = structural_digest(g)
        pis = g.pis
        g.add_and(pis[0], pis[1] ^ 1)  # no PO reaches it
        assert structural_digest(g) == d

    def test_pi_identity_and_phase_matter(self):
        ga = AIG("pi-a")
        a0, a1 = ga.add_pi(), ga.add_pi()
        ga.add_po(ga.add_and(a0, a1 ^ 1))  # a & ~b
        gb = AIG("pi-b")
        b0, b1 = gb.add_pi(), gb.add_pi()
        gb.add_po(gb.add_and(b0 ^ 1, b1))  # ~a & b: PI roles swapped
        assert structural_digest(ga) != structural_digest(gb)

        gc = ga.clone()
        gc.set_po(0, gc.pos[0] ^ 1)  # same cone, inverted output
        assert structural_digest(gc) != structural_digest(ga)


class TestStoreKeying:
    def test_alias_spellings_share_a_key(self):
        store = ResultStore()
        g = random_aig(6, 50, 2, seed=13)
        assert store.key(g, "f; fz") == store.key(g, "rf; rfz")
        assert store.key(g, "rf;rfz") == store.key(g, "rf; rfz")

    def test_script_and_flag_changes_miss(self):
        store = ResultStore()
        g = random_aig(6, 50, 2, seed=13)
        base = store.key(g, "rf")
        assert store.key(g, "rf -l") != base
        assert store.key(g, "rw") != base

    def test_structural_equivalents_share_a_key(self):
        store = ResultStore()
        g = random_aig(6, 50, 2, seed=14, name="first")
        renamed = from_text(to_text(g), name="totally-different")
        assert store.key(g, "b; rf") == store.key(renamed, "b; rf")

    def test_registry_version_fences_keys(self):
        g = random_aig(6, 50, 2, seed=15)
        patched = default_registry().copy()
        patched.register(
            CommandSpec(name="zzz", execute=lambda g, ctx, flags: (g, None))
        )
        assert patched.version != default_registry().version
        old = ResultStore(registry=default_registry())
        new = ResultStore(registry=patched)
        assert old.key(g, "rf") != new.key(g, "rf")

    def test_unresolvable_script_raises(self):
        store = ResultStore()
        with pytest.raises(ReproError):
            store.key(random_aig(5, 30, 2, seed=16), "not-a-command")


def _entry(tag: str) -> CachedResult:
    return CachedResult(
        bench_text=f"# {tag}\n", n_ands=1, level=1, n_ands_before=2, level_before=2
    )


class TestStoreLRU:
    def test_eviction_order_and_counters(self):
        store = ResultStore(max_entries=2)
        keys = [(f"digest{i}", "rf", "v") for i in range(3)]
        store.insert(keys[0], _entry("k0"))
        store.insert(keys[1], _entry("k1"))
        assert store.lookup(keys[0]) is not None  # refresh k0 to MRU
        store.insert(keys[2], _entry("k2"))  # evicts k1, not k0
        assert keys[1] not in store and keys[0] in store and keys[2] in store
        assert store.evictions == 1 and len(store) == 2
        assert store.lookup(keys[1]) is None
        assert store.hits == 1 and store.misses == 1
        assert store.hit_rate == 0.5

    def test_hit_returns_inserted_bytes_verbatim(self):
        store = ResultStore()
        g = random_aig(6, 60, 2, seed=17)
        out, _ = run_flow(g.clone(), "b; rf")
        text = to_text(out)
        key = store.key(g, "b; rf")
        store.insert(
            key,
            CachedResult(
                bench_text=text,
                n_ands=out.n_ands,
                level=out.max_level(),
                n_ands_before=g.n_ands,
                level_before=g.max_level(),
            ),
        )
        hit = store.get(from_text(to_text(g), name="resubmitted"), "b; rf")
        assert hit is not None and hit.bench_text == text


class TestStoreSpill:
    def test_insert_writes_one_spill_file(self, tmp_path):
        store = ResultStore(spill_dir=tmp_path)
        key = ("digest0", "rf", "v")
        store.insert(key, _entry("k0"))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1 and store.spill_writes == 1
        # In-memory lookups never touch the disk tier.
        assert store.lookup(key) == _entry("k0")
        assert store.spill_loads == 0

    def test_fresh_store_reloads_from_spill_as_a_hit(self, tmp_path):
        old = ResultStore(spill_dir=tmp_path)
        key = ("digest1", "rf", "v")
        old.insert(key, _entry("k1"))
        # A restarted service: empty memory, same spill directory.
        fresh = ResultStore(spill_dir=tmp_path)
        assert len(fresh) == 0
        hit = fresh.lookup(key)
        assert hit == _entry("k1")
        assert fresh.spill_loads == 1 and fresh.hits == 1 and fresh.misses == 0
        assert key in fresh  # the reload re-entered the memory LRU
        fresh.lookup(key)
        assert fresh.spill_loads == 1  # second hit is pure memory

    def test_eviction_never_deletes_spill_files(self, tmp_path):
        store = ResultStore(max_entries=1, spill_dir=tmp_path)
        keys = [(f"digest{i}", "rf", "v") for i in range(2)]
        store.insert(keys[0], _entry("k0"))
        store.insert(keys[1], _entry("k1"))  # evicts keys[0] from memory
        assert keys[0] not in store and store.evictions == 1
        assert len(list(tmp_path.glob("*.json"))) == 2
        # The evicted entry comes back from disk...
        assert store.lookup(keys[0]) == _entry("k0")
        assert store.spill_loads == 1
        # ...at the cost of evicting keys[1], which also reloads.
        assert store.lookup(keys[1]) == _entry("k1")
        assert store.spill_loads == 2

    def test_corrupt_and_alien_spill_files_are_misses(self, tmp_path):
        store = ResultStore(spill_dir=tmp_path)
        key = ("digest2", "rf", "v")
        store.insert(key, _entry("k2"))
        path = store._spill_path(key)
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultStore(spill_dir=tmp_path)
        assert fresh.lookup(key) is None and fresh.misses == 1
        # A file whose embedded key disagrees with the address is alien
        # (collision / tampering) and must not be trusted either.
        store._spill_write(("other", "rw", "v"), _entry("k3"))
        alien = store._spill_path(("other", "rw", "v"))
        path.write_bytes(alien.read_bytes())
        assert fresh.lookup(key) is None and fresh.misses == 2

    def test_no_spill_dir_means_no_disk_io(self, tmp_path):
        store = ResultStore()
        store.insert(("digest3", "rf", "v"), _entry("k4"))
        assert store.spill_writes == 0 and store.spill_loads == 0
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def parse_calls(monkeypatch):
    """Count the store's ``from_text`` calls (each one is a real parse)."""
    calls = []

    def counting(text, name="aig"):
        calls.append(name)
        return from_text(text, name)

    monkeypatch.setattr(store_module, "from_text", counting)
    return calls


def _renamed(text: str, name: str) -> str:
    """``text`` with its ``# name`` header comment replaced."""
    header, rest = text.split("\n", 1)
    assert header.startswith("# ")
    return f"# {name}\n{rest}"


# Two texts that differ only after a ``\r`` that follows a ``#``:
# ``str.splitlines`` ends the comment at the ``\r``, so the gate line is
# code, and the two circuits compute AND vs OR.
_CR_AND = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n# tag\ry = AND(a, b)\n"
_CR_OR = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n# tag\ry = OR(a, b)\n"


def _check_cr_texts_keep_apart(store: ResultStore) -> None:
    for text in (_CR_AND, _CR_OR, _CR_AND):
        key, n_ands, level = store.request_key(text, "b")
        fresh = from_text(text)
        assert key == store.key(fresh, "b")
        assert (n_ands, level) == (fresh.n_ands, fresh.max_level())


class TestTextMemo:
    def test_renamed_copy_skips_the_parse(self, parse_calls):
        store = ResultStore()
        g = random_aig(6, 70, 3, seed=18, name="orig")
        text = to_text(g)
        first = store.request_key(text, "b; rf")
        assert len(parse_calls) == 1
        copy = _renamed(text, "orig~1")
        assert copy != text
        assert store.request_key(copy, "b; f") == first  # alias spelling too
        assert len(parse_calls) == 1  # answered without a parse
        fresh = from_text(copy, name="orig~1")
        assert first == (store.key(fresh, "b; rf"), fresh.n_ands, fresh.max_level())
        assert store.text_memo_hits == 1 and store.text_memo_misses == 1

    def test_cr_ends_a_comment(self):
        assert text_key(_CR_AND) != text_key(_CR_OR)
        assert from_text(_CR_AND).structural_digest() != (
            from_text(_CR_OR).structural_digest()
        )
        store = ResultStore()
        _check_cr_texts_keep_apart(store)
        assert store.text_memo_misses == 2 and store.text_memo_hits == 1

    def test_regex_comment_strip_fails_the_cr_check(self, monkeypatch):
        """A key that strips ``#`` to end-of-``\n`` reads the gate line as
        comment, so the OR text would be served the AND text's key."""

        def regex_key(text: str) -> bytes:
            code = re.sub(r"#[^\n]*", "", text)
            return hashlib.blake2b(code.encode(), digest_size=16).digest()

        assert regex_key(_CR_AND) == regex_key(_CR_OR)
        monkeypatch.setattr(store_module, "text_key", regex_key)
        with pytest.raises(AssertionError):
            _check_cr_texts_keep_apart(ResultStore())

    def test_whitespace_and_blank_lines_share_a_key(self):
        text = to_text(random_aig(5, 40, 2, seed=19))
        noisy = "\n\n" + text.replace("\n", "  # note\n\n\t ")
        assert text_key(noisy) == text_key(text)
        assert from_text(noisy).structural_digest() == (
            from_text(text).structural_digest()
        )

    def test_memo_is_bounded_by_max_entries(self, parse_calls):
        store = ResultStore(max_entries=2)
        texts = [to_text(random_aig(5, 40, 2, seed=20 + i)) for i in range(3)]
        for text in texts:
            store.request_key(text, "b")
        assert len(store._texts) == 2 and len(parse_calls) == 3
        store.request_key(texts[2], "b")  # most recent: still memoized
        assert len(parse_calls) == 3
        store.request_key(texts[0], "b")  # the LRU entry was evicted
        assert len(parse_calls) == 4 and len(store._texts) == 2

    def test_memo_never_spills(self, tmp_path):
        store = ResultStore(spill_dir=tmp_path)
        text = to_text(random_aig(5, 40, 2, seed=23))
        store.request_key(text, "b")
        store.request_key(_renamed(text, "again"), "b")
        assert store.text_memo_hits == 1
        assert list(tmp_path.iterdir()) == [] and store.spill_writes == 0

    def test_unparsable_text_is_not_memoized(self):
        store = ResultStore()
        with pytest.raises(BenchFormatError):
            store.request_key("INPUT(a)\ny = FROB(a)\n", "b")
        assert len(store._texts) == 0

    def test_counters_are_labelled_per_store(self):
        store = ResultStore()
        text = to_text(random_aig(5, 40, 2, seed=24))
        for _ in range(3):
            store.request_key(text, "b")
        reg = obs.metrics()
        assert reg.value("serve_text_memo_hits_total", store=store.label) == 2
        assert reg.value("serve_text_memo_misses_total", store=store.label) == 1


class TestEngineCacheLRU:
    def test_exact_layer_evicts_lru_and_counts(self):
        before = obs.metrics().total("engine_cache_evictions_total")
        cache = ResynthCache(max_entries=2)
        cache[(0b0001, 5)] = ("t0", False)
        cache[(0b0010, 5)] = ("t1", False)
        assert cache.get((0b0001, 5)) is not None  # refresh to MRU
        cache[(0b0100, 5)] = ("t2", False)  # evicts (0b0010, 5)
        assert cache.get((0b0010, 5)) is None
        assert cache.get((0b0001, 5)) is not None
        assert obs.metrics().total("engine_cache_evictions_total") - before == 1

    def test_unbounded_by_default(self):
        cache = ResynthCache()
        for i in range(300):
            cache[(i, 5)] = ("t", False)
        assert len(cache) == 300

    def test_session_threads_cache_entries(self):
        with OptSession(cache_entries=3) as session:
            assert session.resynth_cache.max_entries == 3
        with OptSession() as session:
            assert session.resynth_cache.max_entries is None
