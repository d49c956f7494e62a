import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep.rng import Domain, path_stream, substream, substreams

from _oracles import block_stream, philox_substream

WORD = st.integers(min_value=0, max_value=2**64 - 1)
NEAR_TOP = st.integers(min_value=2**64 - 4, max_value=2**64 - 1)
DRAW = st.tuples(st.sampled_from(["random", "standard_normal", "normal", "uint32"]),
                 st.integers(min_value=0, max_value=9))


def draw(gen, kind, size):
    if kind == "random":
        return gen.random(size)
    if kind == "standard_normal":
        return gen.standard_normal(size)
    if kind == "normal":
        return gen.normal(0.5, 2.0, size)
    return gen.integers(0, 2**32 - 1, size=size, dtype=np.uint32, endpoint=True)


@given(WORD, st.one_of(st.sampled_from(list(Domain)), WORD), WORD,
       st.lists(st.tuples(st.one_of(WORD, NEAR_TOP), st.booleans(), WORD,
                          st.lists(DRAW, max_size=4)),
                min_size=1, max_size=8))
@settings(max_examples=60)
def test_substreams_match_fresh_philox(seed, domain, b0, items):
    # Each item: a, whether b continues b0, b0 + 1, ... or is its own word,
    # and the draws made there.  Odd uint32 counts and sizes off the 4-word
    # buffer leave the next address a partly used buffer to discard.
    addresses = [(a, b0 + i if consecutive else b)
                 for i, (a, consecutive, b, _) in enumerate(items)]
    gens = substreams(seed, domain, addresses)
    for (a, b), (*_, draws), gen in zip(addresses, items, gens):
        fresh = philox_substream(seed, int(domain), a, b)
        for kind, size in draws + [("random", 3)]:
            assert np.array_equal(draw(gen, kind, size), draw(fresh, kind, size))


def test_substreams_discard_a_partly_used_buffer():
    addresses = [(5, 0), (5, 1), (2**64 - 1, 2**64 - 1)]
    for (a, b), gen in zip(addresses, substreams(3, Domain.BLOCK, addresses)):
        fresh = philox_substream(3, Domain.BLOCK, a, b)
        assert gen.integers(0, 2**32, dtype=np.uint32) == fresh.integers(0, 2**32, dtype=np.uint32)
        assert gen.random() == fresh.random()
        assert np.array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=3, dtype=np.uint32))


def test_single_address_streams_follow_the_layout():
    assert substream(9, 7, 4, 2).random() == philox_substream(9, 7, 4, 2).random()
    assert path_stream(9, 64, 3).random() == philox_substream(9, Domain.PATH, 64, 3).random()
    assert (block_stream(9, 64, 3, 5).random()
            == philox_substream(9, Domain.BLOCK, (64 << 32) | 3, 5).random())
