import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import (FIGURE_EIGHT, HOPF, TREFOIL, TREFOIL_RH, bench_closures,
                      braid_closure, corpus_path, corpus_tool)
from khss.diagram import (
    ParseError,
    StructureError,
    from_crossings,
    is_alternating,
    load_corpus,
    parse_pd,
    render,
)
from moves import mirror, reidemeister1, reidemeister2


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert len(d.crossings) == 3
    assert d.arc_count == 6
    assert len(d.components) == 1
    assert d.basepoint == 1


def test_parse_whitespace_and_basepoint():
    d = parse_pd(" PD[ X(1,4,2,5), X(3,6,4,1),\n X(5,2,6,3) ] @arc=4 ")
    assert d.basepoint == 4


def test_parse_unknot_tokens():
    d = parse_pd("U")
    assert d.unknotted_extras == 1
    assert len(d.crossings) == 0
    d2 = parse_pd("U + U")
    assert d2.unknotted_extras == 2


def test_parse_rejects_garbage():
    for bad in ("PD[", "PD[Y(1,2,3,4)]", "PD[X(1,2,3)]", "", "@arc=2"):
        with pytest.raises(ParseError):
            parse_pd(bad)


@pytest.mark.parametrize("text, position", [
    ("PD[X(1,4,2,5),X(3,6,4,1),Y(5,2,6,3)]", 25),
    ("PD[X(1,4,2,5), X(3,6,4,1);X(5,2,6,3)]", 25),
    (" PD[X(1,4,2,5)] + Q", 18),
    ("PD[X(1,1,2,2)]+P", 15),
    ("PD[X(1,2,3)]", 3),
    ("PD[X(1,1,2,2)] + PD[X(1,1,2,2)]", 17),
    ("U + + U", 4),
    ("U +", 2),
    (" PD[ ] ", 5),
    ("PD[X(1,1,2,2),]", 14),
    ("PD[", 3),
    ("  @arc=2", 2),
    ("U @arc=x", 2),
])
def test_parse_error_positions_index_the_input(text, position):
    with pytest.raises(ParseError) as exc:
        parse_pd(text)
    assert exc.value.position == position


def test_arc_count_validation():
    # arc 7 is out of range before arc 1 is counted once
    with pytest.raises(StructureError,
                       match=r"^crossing 2: arc 7 out of range 1\.\.6$"):
        parse_pd("PD[X(1,4,2,5),X(3,6,4,7),X(5,2,6,3)]")
    # arc 1 appears three times, arc 2 once
    with pytest.raises(StructureError, match="arcs must appear exactly twice"):
        parse_pd("PD[X(1,1,1,2)]")
    with pytest.raises(StructureError, match="empty diagram"):
        from_crossings(())
    with pytest.raises(StructureError, match="does not have 4 arcs"):
        from_crossings([(1, 2, 3)])


def test_a_basepoint_on_no_component_is_rejected():
    d = dataclasses.replace(parse_pd(TREFOIL), basepoint=99)
    with pytest.raises(StructureError, match="not on any component"):
        d.marked_component()


def test_signs_left_handed_trefoil():
    assert parse_pd(TREFOIL).signs == (-1, -1, -1)
    assert parse_pd(TREFOIL).writhe == -3


def test_signs_right_handed_trefoil():
    assert parse_pd(TREFOIL_RH).signs == (1, 1, 1)


def test_figure_eight_balanced():
    d = parse_pd(FIGURE_EIGHT)
    assert d.n_plus == 2 and d.n_minus == 2
    assert len(d.components) == 1


def test_hopf_two_components():
    d = parse_pd(HOPF)
    assert len(d.components) == 2
    assert abs(d.writhe) == 2


def test_components_follow_the_incoming_slots():
    # each arc's head is the one of its two occurrences whose slot is
    # incoming; a strand entering slot s leaves at slot s ^ 2
    diagrams = [d for _, d in load_corpus(corpus_path())]
    diagrams += [parse_pd(pd) for workload in ("probe", "braid-complex")
                 for pd in bench_closures(workload)]
    diagrams += [parse_pd(pd) for pd in
                 ("U+U", "PD[X(2,1,2,1)]", HOPF + "+U")]
    # a link whose walk from slot a of crossing 4 enters arc 6 before arc 2
    diagrams.append(braid_closure([3, 2, 5, 2, 3, 1, -5, -1], 6))
    for d in diagrams:
        text = render(d)
        nxt = {}
        for cr, mask in zip(d.crossings, d.incoming):
            # a in, c out, and one of b and d in
            assert mask & 5 == 1 and mask & 10 in (2, 8), text
            for s in range(4):
                if mask >> s & 1:
                    assert cr[s] not in nxt, text
                    nxt[cr[s]] = cr[s ^ 2]
        arcs = [a for comp in d.components for a in comp]
        assert sorted(arcs) == sorted(nxt) == list(range(1, d.arc_count + 1))
        firsts = [comp[0] for comp in d.components]
        assert firsts == sorted(firsts), text
        for comp in d.components:
            assert comp[0] == min(comp), text
            for i, a in enumerate(comp):
                assert nxt[a] == comp[(i + 1) % len(comp)], text


def test_benchmark_inputs_match_their_pinned_digests():
    # sha256 of the seed-1 closures the benchmark draws through
    # gen_corpus.braid_closure_pd, one PD text a line; a deliberate change
    # of those inputs writes the new digests to the file
    pinned = json.loads((Path(__file__).parent / "data" /
                         "bench_input_digests.json").read_text())
    got = {workload: hashlib.sha256("".join(
        pd + "\n" for pd in bench_closures(workload)).encode()).hexdigest()
        for workload in pinned}
    assert got == pinned


def test_braid_closure_has_a_component_per_cycle():
    # one component per cycle of the word's permutation; a strand that no
    # letter touches closes to a crossingless unknot
    rng = random.Random(35)
    skipped = 0
    for _ in range(2000):
        strands = rng.randint(1, 6)
        letters = rng.sample(range(1, strands), rng.randint(0, strands - 1))
        word = [rng.choice((1, -1)) * rng.choice(letters)
                for _ in range(rng.randint(0, 10) if letters else 0)]
        perm = list(range(strands))
        for letter in word:
            i = abs(letter)
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        cycles, seen = 0, set()
        for s in range(strands):
            cycles += s not in seen
            while s not in seen:
                seen.add(s)
                s = perm[s]
        touched = {abs(x) for x in word} | {abs(x) + 1 for x in word}
        skipped += len(touched) < strands
        d = braid_closure(word, strands)
        assert len(d.components) + d.unknotted_extras == cycles, (word,
                                                                  strands)
    assert skipped > 500


def test_unorientable_diagram_rejected():
    # arc 1 enters both crossings as their under strand
    with pytest.raises(StructureError, match="unorientable"):
        parse_pd("PD[X(1,3,2,4),X(1,4,2,3)]")


def test_braid_closure_signs_are_the_letters_signs():
    # a braid closure runs every strand upward, so crossing k has the
    # sign of letter k; kept to knots, where every component passes under
    # somewhere and so has a fixed direction
    rng = random.Random(20)
    knots = 0
    for _ in range(3000):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 12))]
        d = braid_closure(word, strands)
        if len(d.components) != 1:
            continue
        knots += 1
        assert d.signs == tuple(1 if s > 0 else -1 for s in word), word
        assert mirror(d).signs == tuple(-s for s in d.signs), word
    assert knots > 1000


def passes(d, comp, slots):
    """Whether a component of ``d`` sits at one of ``slots`` (0 and 2 for
    an under pass, 1 and 3 for an over pass) of some crossing."""
    return any(cr[k] in comp for cr in d.crossings for k in slots)


def test_mirror_negates_the_signs_when_every_component_passes_over():
    # seeded braid closures that are links; the mirror of a component
    # with no over pass has no under pass, and PD text cannot carry its
    # direction, so the condition fails on some of them
    rng = random.Random(3)
    met = missed = 0
    for _ in range(3000):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 12))]
        d = braid_closure(word, strands)
        if len(d.components) == 1:
            continue
        m = mirror(d)
        assert parse_pd(render(m)) == m, word
        if all(passes(d, comp, (1, 3)) for comp in d.components):
            met += 1
            assert m.signs == tuple(-s for s in d.signs), word
        else:
            missed += 1
    assert met > 1500 and missed > 300


def test_mirror_may_reverse_a_component_with_no_under_pass():
    d = braid_closure([3, 2, 5, 2, 3, 1, -5, -1], 6)
    m = mirror(d)
    assert [comp for comp in m.components
            if not passes(m, comp, (0, 2))] == [(8, 10), (14, 16)]
    assert d.signs == (1, 1, -1, 1, 1, 1, 1, -1)
    assert m.signs == (-1, -1, -1, -1, -1, -1, 1, 1)


def test_mirror_is_involution_and_swaps_signs():
    for text in (TREFOIL, FIGURE_EIGHT, HOPF):
        d = parse_pd(text)
        m = mirror(d)
        assert m.signs == tuple(-s for s in d.signs)
        assert render(mirror(m)) == render(d)


def test_render_roundtrip():
    for text in (TREFOIL, FIGURE_EIGHT, HOPF, "U"):
        d = parse_pd(text)
        assert render(parse_pd(render(d))) == render(d)
    # PD text marks an arc or nothing: no crossingless mark beside crossings
    marked_u = parse_pd(TREFOIL + "+U").with_basepoint(None)
    with pytest.raises(StructureError, match="crossingless basepoint"):
        render(marked_u)


def test_kink_diagrams_parse():
    pos = parse_pd("PD[X(1,1,2,2)]")
    neg = parse_pd("PD[X(1,2,2,1)]")
    assert pos.writhe == 1
    assert neg.writhe == -1


def test_r1_changes_writhe_by_kink_sign():
    d = parse_pd(TREFOIL)
    for sign in (1, -1):
        d2 = reidemeister1(d, arc=2, kink_sign=sign)
        assert len(d2.crossings) == 4
        assert d2.writhe == d.writhe + sign
        render(d2)  # still a valid diagram


def test_r1_on_unknot():
    d = parse_pd("U")
    d2 = reidemeister1(d, arc=None, kink_sign=1)
    assert len(d2.crossings) == 1
    assert d2.writhe == 1


def test_r2_adds_balanced_pair():
    d = parse_pd(TREFOIL)
    d2 = reidemeister2(d, arc_a=1, arc_b=3)
    assert len(d2.crossings) == 5
    assert d2.writhe == d.writhe
    assert d2.n_plus == d.n_plus + 1
    assert d2.n_minus == d.n_minus + 1


def test_r2_self_poke_on_unknot():
    d2 = reidemeister2(parse_pd("U"), arc_a=None, arc_b=None)
    assert len(d2.crossings) == 2
    assert d2.writhe == 0


def test_moves_on_the_marked_crossingless_component_keep_the_mark():
    # marked on the first U; the trefoil has arcs 1-6
    d = parse_pd(TREFOIL + "+U+U").with_basepoint(None)
    kinked = reidemeister1(d, None, 1)
    assert kinked.marked_component() == (7, 8)
    assert kinked.unknotted_extras == 1
    poked = reidemeister2(d, None, None)
    assert sorted(poked.marked_component()) == [7, 8, 9, 10]
    assert poked.unknotted_extras == 1


def test_random_moves_stay_valid():
    rng = random.Random(11)
    d = parse_pd(FIGURE_EIGHT)
    for _ in range(20):
        arcs = sorted({a for t in d.crossings for a in t})
        if rng.random() < 0.5:
            d = reidemeister1(d, rng.choice(arcs), rng.choice((1, -1)))
        else:
            a, b = rng.sample(arcs, 2)
            d = reidemeister2(d, a, b)
        render(d)


def test_is_alternating():
    assert is_alternating(parse_pd(TREFOIL))
    assert is_alternating(parse_pd(FIGURE_EIGHT))
    # the corpus generator's flag for each knot, false for 8_19
    corpus = dict(load_corpus(corpus_path()))
    flags = {name: alternating
             for name, _, _, _, alternating in corpus_tool().ENTRIES}
    assert not flags["8_19"]
    for name, alternating in flags.items():
        assert is_alternating(corpus[name]) == alternating, name
    for k in range(1, 5):
        assert not is_alternating(braid_closure([1, 2] * k, 3)), k
        assert is_alternating(braid_closure([1, -2] * k, 3)), k
    for n in range(1, 8):
        assert is_alternating(braid_closure([1] * n, 2)), n
    # a one-arc component meets one crossing at two passes of one kind
    assert not is_alternating(parse_pd("PD[X(2,1,2,1)]"))
    assert is_alternating(parse_pd("U"))
    assert is_alternating(parse_pd("U+U"))


def test_load_corpus_errors(tmp_path):
    good = tmp_path / "ok.csv"
    good.write_text("# comment\nunknot,U\ntrefoil," + TREFOIL + "\n")
    entries = load_corpus(str(good))
    assert [n for n, _ in entries] == ["unknot", "trefoil"]

    bad = tmp_path / "bad.csv"
    bad.write_text("trefoil,PD[X(1,2,3)]\n")
    with pytest.raises((ParseError, ValueError)) as exc:
        load_corpus(str(bad))
    assert "1" in str(exc.value)  # names the offending line

    # the position indexes the raw line, not the stripped PD field
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("a,  PD[X(1,2,3)]\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(str(spaced))
    assert exc.value.position == 7
    assert "a,  PD[X(1,2,3)]"[exc.value.position] == "X"
    # so does the position of a basepoint that is not an arc
    spaced.write_text("a, U @arc=1\n")
    with pytest.raises(ParseError, match="line 1: basepoint 1 is not") as exc:
        load_corpus(str(spaced))
    assert "a, U @arc=1"[exc.value.position] == "@"

    # a byte order mark is not part of the first line
    bom = tmp_path / "bom.csv"
    bom.write_text("# comment\nunknot,U\n", encoding="utf-8-sig")
    assert [n for n, _ in load_corpus(str(bom))] == ["unknot"]
    bom.write_text("unknot,U\ntrefoil," + TREFOIL + "\n", encoding="utf-8-sig")
    assert [n for n, _ in load_corpus(str(bom))] == ["unknot", "trefoil"]

    no_comma = tmp_path / "no_comma.csv"
    no_comma.write_text("U\n")
    with pytest.raises(ParseError, match="line 1: expected 'name,pdcode'"):
        load_corpus(str(no_comma))

    # a StructureError is a ParseError that names the line
    structure = tmp_path / "structure.csv"
    structure.write_text("# comment\nx,PD[X(1,1,1,2)]\n")
    with pytest.raises(ParseError, match="line 2: arcs must appear"):
        load_corpus(str(structure))

    dup = tmp_path / "dup.csv"
    dup.write_text("a,U\na,U\n")
    with pytest.raises(ValueError):
        load_corpus(str(dup))
