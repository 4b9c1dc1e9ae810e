"""Property-based tests on the TCOR Attribute Cache.

Random but *well-formed* PB access sequences (every primitive written
once, then read in traversal order with correct OPT numbers) must never
corrupt the Attribute Buffer's free list, leak entries, or disagree with
the primitive-buffer occupancy.

The replay kernel's Attribute Cache (``replay.kernels._attr_cache``)
must also follow the live cache op for op on arbitrary read/write
streams over tiny geometries, where OPT ties across sets are common.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import CacheConfig, TCORConfig
from repro.pbuffer.attributes import PBAttributesMap
from repro.pbuffer.pmd import NO_NEXT_TILE
from repro.replay.kernels import _attr_cache
from repro.tcor.attribute_cache import AttributeCache, AttributeCacheStats


@st.composite
def pb_workloads(draw):
    """A miniature frame: primitive attribute counts plus per-tile reads."""
    num_primitives = draw(st.integers(min_value=1, max_value=24))
    attr_counts = [draw(st.integers(min_value=1, max_value=4))
                   for _ in range(num_primitives)]
    num_tiles = draw(st.integers(min_value=1, max_value=12))
    uses = {}
    for prim in range(num_primitives):
        tiles = draw(st.sets(st.integers(0, num_tiles - 1),
                             min_size=1, max_size=num_tiles))
        uses[prim] = sorted(tiles)
    return attr_counts, num_tiles, uses


@given(workload=pb_workloads(),
       entries=st.sampled_from([4, 8, 16]),
       window=st.sampled_from([1, 4, 32]))
@settings(max_examples=60, deadline=None)
def test_attribute_cache_structural_invariants(workload, entries, window):
    attr_counts, num_tiles, uses = workload
    config = TCORConfig(
        primitive_list_cache=CacheConfig("pl", 1024),
        attribute_buffer_bytes=entries * 48,
        primitive_buffer_associativity=2,
        use_xor_indexing=False,
    )
    if max(attr_counts) > config.attribute_buffer_entries:
        return  # a primitive that can never fit is rejected by design
    cache = AttributeCache(config, PBAttributesMap(attr_counts),
                           inflight_window=window)

    # Binning phase: one write per primitive, first-use OPT number.
    for prim, count in enumerate(attr_counts):
        cache.write(prim, count, uses[prim][0], uses[prim][-1])
        cache.buffer.check_invariants()

    # Fetch phase: traversal-ordered reads with chained OPT numbers.
    for tile in range(num_tiles):
        for prim in range(len(attr_counts)):
            ranks = uses[prim]
            if tile not in ranks:
                continue
            future = [r for r in ranks if r > tile]
            opt = future[0] if future else NO_NEXT_TILE
            outcome = cache.read(prim, attr_counts[prim], opt, ranks[-1])
            assert outcome.hit or outcome.l2_requests
            cache.buffer.check_invariants()

    # Teardown: everything drains; no entry leaks.
    cache.flush()
    cache.buffer.check_invariants()
    assert cache.buffer.used_entries == 0
    assert cache.resident_primitives() == 0


@given(workload=pb_workloads())
@settings(max_examples=40, deadline=None)
def test_resident_attribute_count_matches_buffer_usage(workload):
    attr_counts, _num_tiles, uses = workload
    config = TCORConfig(
        primitive_list_cache=CacheConfig("pl", 1024),
        attribute_buffer_bytes=32 * 48,
        primitive_buffer_associativity=4,
        use_xor_indexing=True,
    )
    cache = AttributeCache(config, PBAttributesMap(attr_counts))
    for prim, count in enumerate(attr_counts):
        cache.write(prim, count, uses[prim][0], uses[prim][-1])
    resident = [
        line for lines in cache._sets for line in lines.values()
    ]
    assert cache.buffer.used_entries == \
        sum(line.num_attributes for line in resident)
    # Every resident line's chain belongs to the right primitive.
    for line in resident:
        assert cache.buffer.chain_primitive(line.abp) == line.primitive_id
        assert len(cache.buffer.chain(line.abp)) == line.num_attributes


@st.composite
def attr_streams(draw):
    """A tiny Primitive Buffer geometry and a stream of reads and writes.

    The Attribute Buffer's size sets the Primitive Buffer's (one line
    per two entries), so the buffer is capped for one way to keep the
    geometry at 1-4 sets.  OPT Numbers come from a small range plus
    ``NO_NEXT_TILE``, so equal OPT Numbers in different sets are common,
    and unlike a compiled trace's they may fall on a read hit.  Two
    reads per write and primitives of two or more attributes keep the
    buffer full, so most streams make space evictions.  Each op is
    decoded from two drawn bytes, which keeps long streams cheap to
    draw and to shrink.
    """
    ways = draw(st.integers(1, 4))
    entries = draw(st.integers(4, min(16, 10 * ways - 1)))
    window = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(2, 4), min_size=2, max_size=12))
    raw = draw(st.binary(min_size=80, max_size=240))
    opts = (0, 1, 2, 3, NO_NEXT_TILE)
    ops = [(first % 3 != 0, first // 3 % len(counts),
            opts[second % 5], second // 5 % 6)
           for first, second in zip(raw[::2], raw[1::2])]
    return ways, entries, window, counts, ops


@given(stream=attr_streams(), write_bypass=st.booleans(),
       use_xor=st.booleans())
@settings(max_examples=300, deadline=None)
def test_replay_attribute_cache_follows_the_live_cache(stream, write_bypass,
                                                       use_xor):
    ways, entries, window, counts, ops = stream
    config = TCORConfig(
        primitive_list_cache=CacheConfig("pl", 1024),
        attribute_buffer_bytes=entries * 48,
        primitive_buffer_associativity=ways,
        use_xor_indexing=use_xor,
        write_bypass=write_bypass,
    )
    attributes = PBAttributesMap(counts)
    live = AttributeCache(config, attributes, inflight_window=window)
    assert 1 <= live.num_sets <= 4
    stride = attributes.pbuffer.attribute_stride
    pids = range(len(counts))
    requests: list = []
    counters = [0] * 8
    fields = [field.name for field in dataclasses.fields(AttributeCacheStats)]

    def send(run) -> None:
        """One recorded L2 request run, as per-block requests."""
        base, count, is_write, region, rank = run
        requests.extend((tag, bool(is_write), region, rank)
                        for tag in range(base, base + count))

    read, write, flush = _attr_cache(
        live.num_sets, ways, config.attribute_buffer_entries, window,
        write_bypass, [live.set_of(pid) for pid in pids],
        [attributes.primitive_base(pid) // stride for pid in pids], counts,
        send, [0, 0], counters)

    def check(live_requests) -> None:
        assert requests == [
            (request.address // stride, request.is_write,
             int(request.region), request.last_tile_rank)
            for request in live_requests]
        assert counters == [getattr(live.stats, name) for name in fields]
        requests.clear()

    for is_read, pid, opt, last in ops:
        if is_read:
            outcome = live.read(pid, counts[pid], opt, last)
            assert read(pid, counts[pid], opt, last) == outcome.hit
        elif live.probe(pid) is None:
            outcome = live.write(pid, counts[pid], opt, last)
            write(pid, counts[pid], opt, last)
        else:
            continue  # a primitive is written into PB-Attributes once
        check(outcome.l2_requests)
    flushed = live.flush()
    flush()
    check(flushed)
