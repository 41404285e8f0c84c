"""Element classes and the one-sided idempotent/equivalence relations."""

import os
import random
import subprocess
import sys

import pytest

import starring
from starring.classify import (
    are_left_equivalent_for,
    are_right_equivalent_for,
    classify,
    is_ep,
    is_left_idempotent_for,
    is_pi,
    is_projection,
    is_right_idempotent_for,
    is_sep,
)
from starring.geninv import InverseBundle
from starring.harness import GeneratorSpec, Mode, generate
from starring.matrix import Matrix
from starring.starfield import RATIONAL, prime_field

F3 = prime_field(3)


def frac_matrix(grid):
    return Matrix(RATIONAL, [[RATIONAL.rational(*e) if isinstance(e, tuple)
                              else RATIONAL.from_int(e) for e in row]
                             for row in grid])


DIAG_1_0 = Matrix.from_ints(RATIONAL, [[1, 0], [0, 0]])
DIAG_2_0 = Matrix.from_ints(RATIONAL, [[2, 0], [0, 0]])
SWAP = Matrix.from_ints(RATIONAL, [[0, 1], [1, 0]])
SHIFT = Matrix.from_ints(RATIONAL, [[0, 1], [0, 0]])
HALF_ONES = frac_matrix([[(1, 2), (1, 2)], [(1, 2), (1, 2)]])


# -- projections ---------------------------------------------------------------

def test_projection_examples():
    assert is_projection(DIAG_1_0)
    assert not is_projection(Matrix.from_ints(RATIONAL, [[1, 1], [0, 0]]))
    assert is_projection(HALF_ONES)
    assert is_projection(Matrix.zeros(RATIONAL, 2))
    assert is_projection(Matrix.identity(RATIONAL, 2))


def test_projection_one_sided_equivalences():
    # e = e e* and e = e* e single out exactly the projections
    rng = random.Random(5)
    for _ in range(300):
        e = Matrix(RATIONAL, [[RATIONAL.rational(rng.randint(-2, 2), rng.randint(1, 2))
                               for _ in range(2)] for _ in range(2)])
        verdict = is_projection(e)
        assert verdict == (e == e * e.star())
        assert verdict == (e == e.star() * e)
    for e in generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)):
        verdict = is_projection(e)
        assert verdict == (e == e * e.star()) == (e == e.star() * e)


# -- class predicates -------------------------------------------------------------

def test_diag_2_0_is_ep_only():
    b = InverseBundle.compute(DIAG_2_0)
    assert is_ep(b) and not is_pi(b) and not is_sep(b)


def test_swap_is_sep():
    b = InverseBundle.compute(SWAP)
    assert is_ep(b) and is_pi(b) and is_sep(b)


def test_identity_is_sep():
    b = InverseBundle.compute(Matrix.identity(RATIONAL, 2))
    assert is_ep(b) and is_pi(b) and is_sep(b)


def test_predicates_require_inverses():
    b = InverseBundle.compute(SHIFT)  # no group inverse
    with pytest.raises(ValueError):
        is_ep(b)
    with pytest.raises(ValueError):
        is_sep(b)
    assert is_pi(b)  # only needs the MP inverse


def test_classify_record():
    c = classify(InverseBundle.compute(DIAG_1_0))
    assert (c.is_projection, c.is_ep, c.is_pi, c.is_sep) == (True, True, True, True)

    c = classify(InverseBundle.compute(DIAG_2_0))
    assert (c.is_projection, c.is_ep, c.is_pi, c.is_sep) == (False, True, False, False)

    c = classify(InverseBundle.compute(SHIFT))
    assert not c.group_invertible and c.mp_invertible
    assert c.is_pi and not c.is_ep and not c.is_sep


def test_classification_invariants_survive_optimize_flag():
    # the invariants must hold under `python -O`, which strips asserts
    code = """
from starring.classify import Classification
for kwargs in (dict(is_projection=False, is_ep=True, is_pi=True, is_sep=True,
                    mp_invertible=False, group_invertible=True),
               dict(is_projection=True, is_ep=True, is_pi=True, is_sep=False,
                    mp_invertible=True, group_invertible=True)):
    try:
        Classification(**kwargs)
    except ValueError:
        continue
    raise SystemExit(f"constructed {kwargs}")
"""
    src = os.path.dirname(os.path.dirname(starring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_sep_iff_ep_and_pi():
    for m in generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)):
        b = InverseBundle.compute(m)
        if b.has_mp and b.has_group:
            assert is_sep(b) == (is_ep(b) and is_pi(b))


# -- one-sided idempotents ------------------------------------------------------

def test_left_idempotent_examples():
    z = Matrix.zeros(RATIONAL, 2)
    for a in (DIAG_1_0, SWAP, SHIFT):
        assert is_left_idempotent_for(z, a)
        assert is_left_idempotent_for(a, a)
        assert is_right_idempotent_for(z, a)
        assert is_right_idempotent_for(a, a)
    assert not is_left_idempotent_for(DIAG_1_0, DIAG_2_0)
    assert not is_right_idempotent_for(DIAG_1_0, DIAG_2_0)


# -- one-sided equivalence --------------------------------------------------------

def test_equivalence_examples():
    z = Matrix.zeros(RATIONAL, 2)
    assert are_left_equivalent_for(SWAP, SWAP, DIAG_2_0)
    assert are_left_equivalent_for(DIAG_1_0, SWAP, z)
    assert are_right_equivalent_for(DIAG_1_0, SWAP, z)
    b, c, a = DIAG_1_0, Matrix.identity(RATIONAL, 2), Matrix.from_ints(
        RATIONAL, [[0, 0], [0, 1]])
    assert not are_left_equivalent_for(b, c, a)
    assert not are_right_equivalent_for(b.star(), c.star(), a.star())


def test_left_equivalence_is_equivalence_relation():
    rng = random.Random(17)
    mats = [Matrix(RATIONAL, [[RATIONAL.from_int(rng.randint(-2, 2))
                               for _ in range(2)] for _ in range(2)])
            for _ in range(12)]
    for a in mats[:4]:
        for b in mats:
            assert are_left_equivalent_for(b, b, a)
            for c in mats:
                if are_left_equivalent_for(b, c, a):
                    assert are_left_equivalent_for(c, b, a)
                    for d in mats:
                        if are_left_equivalent_for(c, d, a):
                            assert are_left_equivalent_for(b, d, a)


# -- duality between the two one-sided notions --------------------------------------

def test_left_right_duality_exhaustive_f3():
    elems = list(generate(GeneratorSpec(Mode.EXHAUSTIVE, F3, 2)))
    for e in elems:
        for a in elems:
            assert is_left_idempotent_for(e, a) == is_right_idempotent_for(a - e, a)


def test_left_right_duality_random_rational():
    rng = random.Random(123)
    for _ in range(1000):
        e = Matrix(RATIONAL, [[RATIONAL.rational(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(2)] for _ in range(2)])
        a = Matrix(RATIONAL, [[RATIONAL.rational(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(2)] for _ in range(2)])
        assert is_left_idempotent_for(e, a) == is_right_idempotent_for(a - e, a)
