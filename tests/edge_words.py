"""Cube edges as words in the unlink cobordism generators: the oracle
side of the edge-consistency checks.  A reduced edge map evaluated
through the stated generator matrices must equal
``tqft.edge_columns_reduced``.
"""

from __future__ import annotations

from khss.cube import EdgeCobordism
from khss.tqft import Generator, GeneratorWord, evaluate_word


def edge_as_generator_word(e: EdgeCobordism) -> GeneratorWord:
    """Express a reduced cube edge as swaps + one saddle generator +
    swaps, acting between the canonical circle orders."""
    n = e.src.circle_count
    arrangement = list(e.src.circles)
    word: list[Generator] = []

    def swap_to(key, slot):
        # bubble the circle with this identity to the given slot
        pos = arrangement.index(key)
        while pos > slot:
            word.append(Generator("X", len(arrangement), pos))
            # X_{i,n} swaps components i, i+1 = slots i-1, i; here i = pos
            arrangement[pos - 1], arrangement[pos] = (
                arrangement[pos], arrangement[pos - 1])
            pos -= 1
        while pos < slot:
            word.append(Generator("X", len(arrangement), pos + 1))
            arrangement[pos], arrangement[pos + 1] = (
                arrangement[pos + 1], arrangement[pos])
            pos += 1

    if e.kind == "merge":
        a, b = e.sources
        (t,) = e.targets
        if a == 0:  # merge involving the marked circle
            swap_to(e.src.circles[b], 1)
            word.append(Generator("Lam", n))
            merged = [e.dst.circles[t]]
            arrangement = merged + arrangement[2:]
        else:
            swap_to(e.src.circles[a], 1)
            swap_to(e.src.circles[b], 2)
            word.append(Generator("ILam", n))
            arrangement = [arrangement[0], e.dst.circles[t]] + arrangement[3:]
    else:
        (s,) = e.sources
        t1, t2 = e.targets
        if s == 0:  # the marked circle splits
            word.append(Generator("V", n))
            new_unmarked = e.dst.circles[t2 if t1 == 0 else t1]
            arrangement = [e.dst.circles[0], new_unmarked] + arrangement[1:]
        else:
            swap_to(e.src.circles[s], 1)
            word.append(Generator("IV", n))
            arrangement = ([arrangement[0], e.dst.circles[t1],
                            e.dst.circles[t2]] + arrangement[2:])

    # sort the arrangement into the target's canonical order
    target = list(e.dst.circles)
    for slot in range(1, len(target)):
        swap_to(target[slot], slot)
    return GeneratorWord(tuple(word))


def edge_word_columns(e: EdgeCobordism) -> list[int]:
    """Evaluate the generator word of an edge via the stated generator
    matrices (the oracle side of the edge-consistency check)."""
    return evaluate_word(edge_as_generator_word(e))
