"""Property-based tests: texture addressing."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.textures.texture import BLOCK_BYTES, MipmappedTexture
from repro.textures.sampler import TextureSampler

powers = st.sampled_from([8, 16, 64, 256])


@given(width=powers, height=powers,
       u=st.floats(-3, 3, allow_nan=False),
       v=st.floats(-3, 3, allow_nan=False),
       density=st.floats(0.1, 512.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_sample_addresses_inside_the_selected_level(width, height, u, v,
                                                    density):
    texture = MipmappedTexture(0x1000, width, height)
    footprint = TextureSampler(texture).sample(u, v, density)
    level = texture.level(footprint.level)
    for address in footprint.addresses:
        assert level.base <= address < level.base + level.size_bytes
        assert address % BLOCK_BYTES == 0
    assert 1 <= len(footprint.addresses) <= 4


@given(width=powers, height=powers)
@settings(max_examples=60, deadline=None)
def test_mip_levels_partition_the_address_space(width, height):
    texture = MipmappedTexture(0, width, height)
    spans = [(level.base, level.base + level.size_bytes)
             for level in texture.levels]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert a_hi == b_lo  # contiguous, no gaps or overlap
    assert spans[-1][1] == texture.total_bytes

