import itertools

from qmlab.galois import field, mask_elems, mask_of
from qmlab.qm import LeakageScheme, transcript, verify_scheme
from qmlab.rscode import bucket_eval
from qmlab.shamir7 import (
    download_cost,
    figure1_table,
    gf7_scheme,
    one_bit_leak,
    verify_gf7,
)


def test_scheme_constants():
    scheme = gf7_scheme()
    assert scheme.ctx.q == 7
    assert scheme.servers == frozenset(range(5))
    assert scheme.schedule == tuple(range(5))
    assert [set(mask_elems(m)) for m in scheme.sets] == [
        {0, 2, 5},
        {0, 1, 6},
        {0, 3, 4},
        {0, 2, 5},
        {0, 1, 6},
    ]


def test_verify_passes_and_counts_bits():
    assert verify_gf7()
    assert download_cost() == (5, 6)


def test_known_transcript():
    assert transcript(gf7_scheme(), (1, 1)) == (1, 1, 0, 1, 1)


def test_transcripts_separate_all_36_lines():
    scheme = gf7_scheme()
    seen = {}
    count = 0
    for c0, c1 in itertools.product(range(1, 7), repeat=2):
        bits = transcript(scheme, (c0, c1))
        product = (c0 * c1) % 7
        assert seen.setdefault(bits, product) == product
        count += 1
    assert count == 36


def test_every_truncation_fails():
    scheme = gf7_scheme()
    for z in range(5):
        short = LeakageScheme(
            scheme.ctx,
            scheme.servers,
            scheme.schedule[:z] + scheme.schedule[z + 1 :],
            scheme.sets[:z] + scheme.sets[z + 1 :],
        )
        assert not verify_scheme(short, scheme.ctx.units)


def test_one_bit_leak_demo():
    leak = one_bit_leak(1, {0, 1, 6})
    assert leak[0] == frozenset({4})
    assert leak[1] == frozenset({5})


def test_one_bit_leak_uninformative_query():
    assert one_bit_leak(0, set(range(7)))[0] == frozenset()


def test_figure1_cells():
    table = figure1_table()
    assert table[1][4] == frozenset({2, 3, 4, 5})
    assert table[2][3] == frozenset({0, 2, 5})
    assert table[1][1] == frozenset({1, 2, 5, 6})
    assert table[0][6] == frozenset(range(1, 7))
    assert all(table[a][0] == frozenset(range(7)) for a in range(7))


def test_figure1_matches_computed_images():
    ctx = field(7)
    table = figure1_table()
    assert len(table) == 7
    for alpha in range(7):
        assert len(table[alpha]) == 7
        for gamma in range(7):
            assert mask_of(table[alpha][gamma]) == bucket_eval(ctx, gamma, alpha)
