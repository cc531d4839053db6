"""The bits that ``qkd_simulate`` reads, checked against ``random`` itself.

``zxcalc.protocols._draw_cells`` draws the key-distribution rounds in bulk: it
reads ``random.Random(seed).getrandbits(32 * n)`` as little-endian 32-bit words
and decodes them the way CPython's ``choice("zx")`` and ``random()`` read the
same words one call at a time.  These checks import neither numpy nor zxcalc,
so they also run on a Python that has neither: ``python tests/test_random_stream.py``.
"""

import random
import struct

SEEDS = range(20)


def _words(seed: int, n: int) -> list[int]:
    """The first ``n`` words of ``random.Random(seed)``, read as ``_draw_cells`` reads
    them (``np.frombuffer(bits.to_bytes(4 * n, "little"), "<u4")``)."""
    bits = random.Random(seed).getrandbits(32 * n)
    return list(struct.unpack(f"<{n}I", bits.to_bytes(4 * n, "little")))


def _choice_zx(words: list[int], i: int) -> tuple[str, int]:
    """``choice("zx")`` from word ``i`` on: the first word whose top bit is 0,
    read at bit 30; and the index after it."""
    while words[i] >> 31:
        i += 1
    return "zx"[words[i] >> 30], i + 1


def _random(words: list[int], i: int) -> tuple[float, int]:
    """``random()`` from words ``i`` and ``i + 1``; and the index after them."""
    a, b = words[i] >> 5, words[i + 1] >> 6
    return (a * 67108864.0 + b) / 2.0**53, i + 2


def test_bulk_words_come_in_generation_order():
    for seed in SEEDS:
        rng = random.Random(seed)
        assert _words(seed, 100) == [rng.getrandbits(32) for _ in range(100)]


def test_rounds_decode_as_choice_and_random():
    for seed in SEEDS:
        words = _words(seed, 4000)
        rng = random.Random(seed)
        i = rounds = 0
        while i < len(words) - 64:  # never 60 rejected words in a row on these seeds
            for _ in range(3):
                letter, i = _choice_zx(words, i)
                assert rng.choice("zx") == letter, (seed, i)
            u, i = _random(words, i)
            assert rng.random() == u, (seed, i)
            rounds += 1
        assert rounds > 400


if __name__ == "__main__":
    test_bulk_words_come_in_generation_order()
    test_rounds_decode_as_choice_and_random()
    print("ok")
