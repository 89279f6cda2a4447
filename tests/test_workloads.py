"""Workload generator and runner tests."""

import itertools
import random

import pytest

from repro.workloads import (
    TWITTER_MIXES,
    WorkloadRunner,
    YCSB_MIXES,
    ZipfianGenerator,
    ScrambledZipfian,
    LatestGenerator,
    load_ops,
    micro_key,
    micro_stream,
    mix_stream,
    twitter_stream,
    ycsb_key,
    ycsb_load_ops,
    ycsb_stream,
)

from tests.conftest import make_aceso


# ---------------------------------------------------------------- zipf

def test_zipf_ranks_in_range():
    gen = ZipfianGenerator(1000, rng=random.Random(1))
    for _ in range(2000):
        assert 0 <= gen.next_rank() < 1000


def test_zipf_skew():
    """theta=0.99 concentrates mass on low ranks."""
    gen = ZipfianGenerator(10_000, rng=random.Random(2))
    samples = [gen.next_rank() for _ in range(20_000)]
    top10 = sum(1 for s in samples if s < 10)
    assert top10 / len(samples) > 0.2


def test_zipf_lower_theta_less_skewed():
    skews = {}
    for theta in (0.5, 0.99):
        gen = ZipfianGenerator(10_000, theta=theta, rng=random.Random(3))
        samples = [gen.next_rank() for _ in range(10_000)]
        skews[theta] = sum(1 for s in samples if s < 10) / len(samples)
    assert skews[0.99] > skews[0.5]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zipf_tiny_key_spaces(n):
    gen = ZipfianGenerator(n, rng=random.Random(n))
    ranks = {gen.next_rank() for _ in range(500)}
    assert ranks == set(range(n))


def test_zipf_draws_unchanged_for_three_keys():
    """The n <= 2 guard must not move the draws of larger key spaces."""
    gen = ZipfianGenerator(3, rng=random.Random(7))
    assert [gen.next_rank() for _ in range(24)] == [
        0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 2, 1, 0, 2, 0,
        2, 0]
    assert gen.zetan == 1.840493339007644
    assert gen.eta == 0.02209823668285601


def test_zipf_param_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.5)


def test_scrambled_zipf_spreads_hot_keys():
    gen = ScrambledZipfian(1000, rng=random.Random(4))
    hot = set()
    for _ in range(100):
        hot.add(gen.next_index())
    # hot items are spread, not clustered at index 0..k
    assert max(hot) > 100


def test_latest_generator_prefers_recent():
    gen = LatestGenerator(1000, rng=random.Random(5))
    samples = [gen.next_index() for _ in range(5000)]
    recent = sum(1 for s in samples if s > 900)
    assert recent / len(samples) > 0.3


def test_latest_generator_grow():
    gen = LatestGenerator(10, rng=random.Random(6))
    for expect in range(10, 30):
        assert gen.grow() == expect
    assert gen.n == 30
    assert all(0 <= gen.next_index() < 30 for _ in range(100))


def test_latest_generator_grows_from_one_key():
    """The first rebuild (1 -> 2 keys) once divided by zero."""
    gen = LatestGenerator(1, rng=random.Random(8))
    assert gen.grow() == 1
    assert gen.grow() == 2
    assert all(0 <= gen.next_index() < 3 for _ in range(100))


def test_ycsb_d_stream_from_one_key_inserts():
    ops = list(itertools.islice(ycsb_stream("D", 0, 1, 8, seed=1), 400))
    assert any(verb == "INSERT" for verb, _key, _value in ops)


# ---------------------------------------------------------------- micro

def test_micro_keys_unique_across_clients():
    keys = {micro_key(c, i) for c in range(4) for i in range(100)}
    assert len(keys) == 400


def test_load_ops_are_inserts():
    ops = load_ops(3, 10, 100)
    assert len(ops) == 10
    assert all(op[0] == "INSERT" for op in ops)
    assert all(len(op[2]) == 100 for op in ops)


def test_micro_stream_update_stays_in_loaded_range():
    stream = micro_stream("UPDATE", 1, 50, 64)
    for verb, key, value in itertools.islice(stream, 100):
        assert verb == "UPDATE"
        idx = int(key.split(b"-k")[1])
        assert idx < 50


def test_micro_stream_insert_uses_fresh_keys():
    stream = micro_stream("INSERT", 0, 50, 64)
    keys = [key for _v, key, _ in itertools.islice(stream, 20)]
    assert all(int(k.split(b"-k")[1]) >= 50 for k in keys)
    assert len(set(keys)) == 20


def test_micro_stream_delete_reinserts():
    stream = micro_stream("DELETE", 0, 10, 64)
    ops = list(itertools.islice(stream, 10))
    verbs = [op[0] for op in ops]
    assert verbs == ["DELETE", "INSERT"] * 5


def test_micro_stream_unknown_verb():
    with pytest.raises(ValueError):
        next(micro_stream("SCAN", 0, 10, 64))


# ---------------------------------------------------------------- ycsb

def test_ycsb_mixes_sum_to_one():
    for name, mix in YCSB_MIXES.items():
        assert sum(mix.values()) == pytest.approx(1.0), name


@pytest.mark.parametrize("workload,expected", [
    ("A", {"SEARCH": 0.5, "UPDATE": 0.5}),
    ("B", {"SEARCH": 0.95, "UPDATE": 0.05}),
    ("C", {"SEARCH": 1.0}),
])
def test_ycsb_stream_matches_mix(workload, expected):
    stream = ycsb_stream(workload, 0, 1000, 64, seed=7)
    counts = {}
    n = 4000
    for verb, _k, _v in itertools.islice(stream, n):
        counts[verb] = counts.get(verb, 0) + 1
    for verb, p in expected.items():
        assert counts.get(verb, 0) / n == pytest.approx(p, abs=0.03)


def test_ycsb_d_inserts_extend_keyspace():
    stream = ycsb_stream("D", 0, 100, 64, seed=8)
    inserted = [k for v, k, _ in itertools.islice(stream, 2000)
                if v == "INSERT"]
    assert inserted
    assert all(int(k[4:]) >= 100 for k in inserted)


def test_ycsb_unknown_workload():
    with pytest.raises(ValueError):
        ycsb_stream("Z", 0, 10, 64)


def test_ycsb_load_partitions_keyspace():
    all_keys = set()
    for cli in range(4):
        ops = ycsb_load_ops(cli, 4, 100, 64)
        keys = {k for _v, k, _ in ops}
        assert not (keys & all_keys)
        all_keys |= keys
    assert all_keys == {ycsb_key(i) for i in range(100)}


def test_mix_stream_validates_probabilities():
    with pytest.raises(ValueError):
        next(mix_stream({"SEARCH": 0.5}, 0, 10, 64))


# ---------------------------------------------------------------- twitter

def test_twitter_mixes_defined():
    assert set(TWITTER_MIXES) == {"STORAGE", "COMPUTE", "TRANSIENT"}
    for mix in TWITTER_MIXES.values():
        assert sum(mix.values()) == pytest.approx(1.0)


def test_twitter_storage_read_heavy():
    stream = twitter_stream("STORAGE", 0, 1000, 64, seed=9)
    n = 2000
    reads = sum(1 for v, _k, _x in itertools.islice(stream, n)
                if v == "SEARCH")
    assert reads / n > 0.85


def test_twitter_transient_write_heavy():
    stream = twitter_stream("TRANSIENT", 0, 1000, 64, seed=10)
    n = 2000
    writes = sum(1 for v, _k, _x in itertools.islice(stream, n)
                 if v in ("INSERT", "DELETE"))
    assert writes / n > 0.6


def test_twitter_unknown_cluster():
    with pytest.raises(ValueError):
        twitter_stream("EDGE", 0, 10, 64)


# ---------------------------------------------------------------- runner

def test_runner_load_and_measure():
    cluster = make_aceso()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 40, 100) for c in cluster.clients])
    result = runner.measure(
        [micro_stream("SEARCH", c.cli_id, 40, 100)
         for c in cluster.clients],
        duration=0.01, warmup=0.002,
    )
    assert result.total_ops > 0
    assert result.throughput("SEARCH") > 0
    assert result.p50("SEARCH") > 0
    assert result.duration == pytest.approx(0.01)


def test_runner_tolerates_racy_deletes():
    cluster = make_aceso()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 20, 100) for c in cluster.clients])
    result = runner.measure(
        [micro_stream("DELETE", c.cli_id, 20, 100)
         for c in cluster.clients],
        duration=0.01,
    )
    assert result.throughput("DELETE") > 0
    assert result.throughput("INSERT") > 0


def test_runner_mixed_ycsb_run():
    cluster = make_aceso()
    runner = WorkloadRunner(cluster)
    total_keys = 100
    runner.load([ycsb_load_ops(c.cli_id, len(cluster.clients), total_keys, 100)
                 for c in cluster.clients])
    result = runner.measure(
        [ycsb_stream("A", c.cli_id, total_keys, 100, seed=11)
         for c in cluster.clients],
        duration=0.01,
    )
    assert result.throughput("SEARCH") > 0
    assert result.throughput("UPDATE") > 0
    assert result.total_mops > 0
