"""Damage drawn by Hypothesis for the artifact-loader fuzz tests."""
from hypothesis import strategies as st


def draw_damaged(data, raw: bytes) -> bytes:
    """`raw` truncated, with one bit flipped, or spliced from its own pieces."""
    damage = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if damage == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if damage == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        damaged = bytearray(raw)
        damaged[bit // 8] ^= 1 << bit % 8
        return bytes(damaged)
    cut, start, stop, resume = (data.draw(st.integers(0, len(raw))) for _ in range(4))
    return raw[:cut] + raw[start:stop] + raw[resume:]
