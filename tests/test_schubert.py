import math
import random
from fractions import Fraction

import pytest

from completequadrics.schubert import (
    SchubertClass,
    duality_pair,
    grass_dim,
    p_dot_r2,
    pieri1,
    rectangle_tableaux,
    sigma,
    sigma1_power,
    sigma1_power_degree,
)


def syt_rectangle_oracle(rows, cols):
    # hook length formula, written out independently of the library helper
    prod = 1
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            prod *= (rows - i) + (cols - j) + 1
    return math.factorial(rows * cols) // prod


class TestClassBasics:
    def test_partition_normalization(self):
        assert sigma(1, 3, 2, 0) == sigma(1, 3, 2)
        assert sigma(1, 3).codim() == 0

    def test_box_validation(self):
        with pytest.raises(ValueError):
            sigma(1, 3, 3)  # wider than n-k = 2
        with pytest.raises(ValueError):
            sigma(1, 3, 1, 1, 1)  # more than k+1 = 2 rows
        with pytest.raises(ValueError):
            sigma(1, 3, 1, 2)  # not weakly decreasing

    def test_addition_and_scalar(self):
        a = sigma(1, 3, 2) + sigma(1, 3, 2)
        assert a == 2 * sigma(1, 3, 2)
        assert (a + (-2) * sigma(1, 3, 2)).terms == {}

    def test_mixed_codim_reported(self):
        mixed = sigma(1, 3, 2) + sigma(1, 3, 1)
        assert mixed.codim() is None

    def test_to_json(self):
        cls = 3 * sigma(2, 5, 2, 1) + sigma(2, 5, 1, 1, 1)
        assert cls.to_json() == {"k": 2, "n": 5, "terms": {"1,1,1": 1, "2,1": 3}}
        assert sigma(1, 3).to_json() == {"k": 1, "n": 3, "terms": {"0": 1}}

    def test_different_grassmannians_do_not_mix(self):
        with pytest.raises(ValueError):
            sigma(1, 3, 1) + sigma(1, 4, 1)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Fraction(1, 2) * sigma(1, 3, 1), id="half-fraction-scalar"),
        pytest.param(lambda: 0.5 * sigma(1, 3, 1), id="half-float-scalar"),
        pytest.param(lambda: 2.7 * sigma(1, 3, 1), id="float-scalar"),
        pytest.param(lambda: 0.5 * SchubertClass(1, 3), id="float-scalar-on-zero"),
        pytest.param(lambda: Fraction(2) * sigma(1, 3, 1), id="integral-fraction-scalar"),
        pytest.param(lambda: SchubertClass(1, 3, {(1,): Fraction(1, 2)}), id="fraction-coefficient"),
        pytest.param(lambda: SchubertClass(1, 3, {(1,): 0.5}), id="float-coefficient"),
        pytest.param(lambda: SchubertClass(1, 3, {(1.0,): 1}), id="float-part"),
        pytest.param(lambda: sigma(1, 3, 1.5), id="float-sigma-part"),
        pytest.param(lambda: sigma(1, 3, Fraction(1)), id="fraction-sigma-part"),
    ])
    def test_non_integers_rejected(self, build):
        # coefficients and parts are integers; a non-integer is never truncated
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: True * sigma(1, 3, 1), id="true-scalar"),
        pytest.param(lambda: False * sigma(1, 3, 1), id="false-scalar"),
        pytest.param(lambda: True * SchubertClass(1, 3), id="true-scalar-on-zero"),
        pytest.param(lambda: SchubertClass(1, 3, {(True,): 2}), id="true-part"),
        pytest.param(lambda: SchubertClass(1, 3, {(1, False): 1}), id="false-part"),
        pytest.param(lambda: SchubertClass(1, 3, {(1,): True}), id="true-coefficient"),
        pytest.param(lambda: sigma(1, 3, True), id="true-sigma-part"),
        pytest.param(lambda: sigma(1, 3, 1).coefficient((True,)), id="true-coefficient-lookup"),
    ])
    def test_booleans_rejected(self, build):
        # a bool is an int to operator.index, but not a coefficient or a part
        with pytest.raises(TypeError, match="boolean"):
            build()
        assert 1 * sigma(1, 3, 1) == sigma(1, 3, 1) == SchubertClass(1, 3, {(1, 0): 1})


class TestPieri:
    def test_square_of_sigma1_on_lines_in_p3(self):
        assert sigma1_power(1, 3, 2) == sigma(1, 3, 2) + sigma(1, 3, 1, 1)

    def test_step_by_step_products(self):
        assert pieri1(sigma(1, 3, 2)) == sigma(1, 3, 2, 1)
        assert pieri1(sigma(1, 3, 1, 1)) == sigma(1, 3, 2, 1)
        assert pieri1(sigma(1, 3, 2, 1)) == sigma(1, 3, 2, 2)
        assert pieri1(sigma(1, 3, 2, 2)).terms == {}

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(20):
            a = SchubertClass(2, 5, {(2, 1): rng.randint(-4, 4), (1, 1): rng.randint(-4, 4)})
            b = SchubertClass(2, 5, {(3,): rng.randint(-4, 4), (2, 1): rng.randint(-4, 4)})
            assert pieri1(a + b) == pieri1(a) + pieri1(b)

    def test_matches_padded_row_reference(self):
        # reference: pad to k+1 rows and try a box at the end of each row
        def reference(parts, k, n):
            rows, cols = k + 1, n - k
            padded = list(parts) + [0] * (rows - len(parts))
            out = {}
            for i in range(rows):
                if padded[i] < cols and (i == 0 or padded[i] < padded[i - 1]):
                    grown = padded[:i] + [padded[i] + 1] + padded[i + 1:]
                    out[tuple(grown)] = out.get(tuple(grown), 0) + 1
            return SchubertClass(k, n, out)

        for k, n in ((0, 1), (0, 4), (1, 3), (2, 5), (3, 5), (2, 7)):
            boxes = [()]
            for parts in boxes:  # grows while it is read: every partition in the box
                assert pieri1(sigma(k, n, *parts)) == reference(parts, k, n), (k, n, parts)
                boxes += [p for p in pieri1(sigma(k, n, *parts)).terms if p not in boxes]
            assert len(boxes) == math.comb(n + 1, k + 1)


class TestDuality:
    def test_self_dual_classes_on_lines_in_p3(self):
        assert duality_pair(sigma(1, 3, 2), sigma(1, 3, 2)) == 1
        assert duality_pair(sigma(1, 3, 1, 1), sigma(1, 3, 1, 1)) == 1
        assert duality_pair(sigma(1, 3, 2), sigma(1, 3, 1, 1)) == 0

    def test_lines_meeting_four_general_lines(self):
        # the classical count: sigma_1^4 = 2 lines meet four general lines
        assert duality_pair(sigma1_power(1, 3, 2), sigma1_power(1, 3, 2)) == 2

    def test_codim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            duality_pair(sigma(1, 3, 1), sigma(1, 3, 2))

    def test_sigma1_is_self_adjoint(self):
        rng = random.Random(5)
        k, n = 2, 5
        dim = grass_dim(k, n)
        partitions_by_codim = {}
        for p in [(), (1,), (1, 1), (2,), (2, 1), (1, 1, 1), (3,), (2, 2),
                  (2, 1, 1), (3, 1), (2, 2, 1), (3, 2), (3, 1, 1), (2, 2, 2),
                  (3, 3), (3, 2, 1), (2, 2, 2), (3, 3, 1), (3, 2, 2),
                  (3, 3, 2), (3, 3, 3)]:
            partitions_by_codim.setdefault(sum(p), []).append(p)
        for _ in range(30):
            c = rng.randint(1, dim - 1)
            if c - 1 not in partitions_by_codim or dim - c not in partitions_by_codim:
                continue
            nonzero = [-3, -2, -1, 1, 2, 3]
            a = SchubertClass(k, n, {rng.choice(partitions_by_codim[c - 1]): rng.choice(nonzero)})
            b = SchubertClass(k, n, {rng.choice(partitions_by_codim[dim - c]): rng.choice(nonzero)})
            assert duality_pair(pieri1(a), b) == duality_pair(a, pieri1(b))


class TestDegrees:
    def test_lines_in_p3(self):
        assert sigma1_power_degree(1, 3, 4) == 2
        assert syt_rectangle_oracle(2, 2) == 2

    def test_lines_in_p4(self):
        assert sigma1_power_degree(1, 4, 6) == 5
        assert syt_rectangle_oracle(2, 3) == 5

    def test_planes_in_p5(self):
        assert sigma1_power_degree(2, 5, 9) == 42
        assert syt_rectangle_oracle(3, 3) == 42

    def test_projective_space_itself(self):
        for n in (1, 2, 3, 5):
            assert sigma1_power_degree(0, n, n) == 1

    def test_degree_matches_tableaux_oracle_generally(self):
        for k, n in ((0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (2, 5)):
            assert sigma1_power_degree(k, n, grass_dim(k, n)) == syt_rectangle_oracle(k + 1, n - k)
            assert rectangle_tableaux(k + 1, n - k) == syt_rectangle_oracle(k + 1, n - k)

    def test_wrong_power_rejected(self):
        with pytest.raises(ValueError):
            sigma1_power_degree(1, 3, 3)


def test_p_pairs_with_rank_two_curve_to_four():
    assert p_dot_r2() == 4


def test_operation_results_match_validating_constructor():
    # sums, scalar multiples and Pieri steps skip the partition checks; their
    # results must be what the public constructor builds from the same terms
    rng = random.Random(11)
    for k, n in ((0, 4), (1, 3), (2, 5), (3, 7)):
        for _ in range(5):
            a = sigma1_power(k, n, rng.randint(0, grass_dim(k, n)))
            b = sigma1_power(k, n, rng.randint(0, grass_dim(k, n)))
            for result in (a + b, a + (-1) * a, 3 * a, 0 * a, pieri1(a), pieri1(a + b)):
                rebuilt = SchubertClass(k, n, result.terms)
                assert result == rebuilt and hash(result) == hash(rebuilt)
                assert result._terms == rebuilt._terms
                assert all(c and (not p or p[-1]) for p, c in result._terms)
