import dataclasses
import json

import numpy as np
import pytest

from totipm.instances import (
    InstanceFormatError,
    SplitMix64,
    emit_instance,
    emit_report,
    load_instance,
    parse_instance,
    random_instance,
    report_to_dict,
)
from totipm.ipm import SolverConfig, short_step_solve
from totipm.polytope import MarginalProblem


def reference_splitmix64(seed, count):
    """Independent reimplementation on numpy uint64 wraparound arithmetic."""
    out = []
    state = np.uint64(seed)
    with np.errstate(over="ignore"):
        for _ in range(count):
            state = state + np.uint64(0x9E3779B97F4A7C15)
            z = state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


class TestSplitMix64:
    def test_matches_independent_implementation(self):
        for seed in (0, 1, 1234567, 2**64 - 1):
            gen = SplitMix64(seed)
            got = [gen.next_uint64() for _ in range(20)]
            assert got == reference_splitmix64(seed, 20)

    def test_float_ranges(self):
        gen = SplitMix64(99)
        for _ in range(1000):
            x = gen.next_float()
            assert 0.0 <= x < 1.0
        gen = SplitMix64(99)
        for _ in range(1000):
            x = gen.next_positive_float()
            assert 0.0 < x <= 1.0

    def test_int_bound(self):
        gen = SplitMix64(7)
        values = {gen.next_int(10) for _ in range(500)}
        assert values == set(range(10))
        with pytest.raises(ValueError):
            gen.next_int(0)

    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_uint64() for _ in range(10)] == [
            b.next_uint64() for _ in range(10)
        ]


class TestRoundTrip:
    def test_bit_exact(self):
        rng = SplitMix64(123)
        problem = random_instance((3, 2, 2), "V", rng, "random")
        text = emit_instance(problem)
        back = parse_instance(text)
        assert back.variant == problem.variant
        assert back.dims == problem.dims
        assert np.array_equal(back.cost, problem.cost)
        for p, q in zip(back.marginals, problem.marginals):
            assert np.array_equal(p, q)
        assert emit_instance(back) == text

    def test_file_round_trip(self, tmp_path):
        problem = random_instance((2, 2), "U", SplitMix64(5), "random")
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(problem), encoding="utf-8")
        back = load_instance(path)
        assert np.array_equal(back.cost, problem.cost)


class TestParseErrors:
    def base_doc(self):
        return {
            "dims": [2, 2],
            "variant": "U",
            "cost": [0.0, 1.0, 1.0, 0.0],
            "marginals": [[0.5, 0.5], [0.5, 0.5]],
        }

    def test_invalid_json(self):
        with pytest.raises(InstanceFormatError, match="document"):
            parse_instance("{not json")

    @pytest.mark.parametrize("field", ["dims", "variant", "cost", "marginals"])
    def test_missing_field_named(self, field):
        doc = self.base_doc()
        del doc[field]
        with pytest.raises(InstanceFormatError, match=field):
            parse_instance(json.dumps(doc))

    def test_bad_variant(self):
        doc = self.base_doc()
        doc["variant"] = "W"
        with pytest.raises(InstanceFormatError, match="variant"):
            parse_instance(json.dumps(doc))

    def test_cost_length_mismatch(self):
        doc = self.base_doc()
        doc["cost"] = [0.0, 1.0, 1.0]
        with pytest.raises(InstanceFormatError, match="cost"):
            parse_instance(json.dumps(doc))

    def test_nonpositive_marginal(self):
        doc = self.base_doc()
        doc["marginals"][0] = [1.0, 0.0]
        with pytest.raises(InstanceFormatError, match="marginals"):
            parse_instance(json.dumps(doc))

    def test_non_numeric_cost(self):
        doc = self.base_doc()
        doc["cost"][2] = "x"
        with pytest.raises(InstanceFormatError, match="cost"):
            parse_instance(json.dumps(doc))

    def test_bad_dims(self):
        doc = self.base_doc()
        doc["dims"] = [2, 0]
        with pytest.raises(InstanceFormatError, match="dims"):
            parse_instance(json.dumps(doc))


class TestRenormalization:
    def test_small_drift_silent(self, capsys):
        doc = {
            "dims": [2],
            "variant": "U",
            "cost": [0.0, 1.0],
            "marginals": [[0.5, 0.5 + 5e-10]],
        }
        problem = parse_instance(json.dumps(doc))
        assert capsys.readouterr().err == ""
        assert problem.marginals[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_drift_warns(self, capsys):
        doc = {
            "dims": [2],
            "variant": "U",
            "cost": [0.0, 1.0],
            "marginals": [[0.6, 0.6]],
        }
        problem = parse_instance(json.dumps(doc))
        err = capsys.readouterr().err
        assert "renormalizing" in err
        assert problem.marginals[0] == pytest.approx([0.5, 0.5], abs=1e-15)


    @pytest.mark.parametrize("vector", [[1e308, 1e308], [1e308, 1e-308]])
    def test_marginal_normalizing_to_zero_rejected(self, vector):
        # the first sum overflows to inf, the second entry of the second
        # underflows beside its sum: either way an entry normalizes to 0
        doc = {
            "dims": [2, 2],
            "variant": "U",
            "cost": [0.0, 1.0, 1.0, 0.0],
            "marginals": [vector, [0.5, 0.5]],
        }
        with pytest.raises(InstanceFormatError, match="marginals.*vector 0"):
            parse_instance(json.dumps(doc))


class TestRandomInstance:
    def test_costs_are_small_integers(self):
        problem = random_instance((4, 4), "U", SplitMix64(11), "random")
        values = problem.cost.ravel()
        assert np.array_equal(values, np.round(values))
        assert values.min() >= 0.0
        assert values.max() <= 9.0

    def test_uniform_marginals_draw_nothing_after_costs(self):
        # the cost stream must be identical whichever marginal style follows
        a = random_instance((3, 3), "U", SplitMix64(17), "uniform")
        b = random_instance((3, 3), "U", SplitMix64(17), "random")
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.marginals[0], np.full(3, 1.0 / 3.0))

    def test_random_marginals_positive_normalized(self):
        problem = random_instance((3, 4), "U", SplitMix64(19), "random")
        for p in problem.marginals:
            assert p.min() > 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = random_instance((2, 2, 2), "V", SplitMix64(23), "random")
        b = random_instance((2, 2, 2), "V", SplitMix64(23), "random")
        assert np.array_equal(a.cost, b.cost)
        for p, q in zip(a.marginals, b.marginals):
            assert np.array_equal(p, q)

    def test_bad_marginal_kind(self):
        with pytest.raises(ValueError):
            random_instance((2, 2), "U", SplitMix64(1), "dirichlet")


class TestReportSerialization:
    def make_report(self):
        problem = MarginalProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        )
        return short_step_solve(problem, SolverConfig(epsilon=1e-3))

    def test_fields_and_invariant(self):
        report = self.make_report()
        doc = report_to_dict(report)
        assert list(doc) == [
            "value",
            "iterations",
            "predicted_bound",
            "eta_final",
            "gap_bound",
            "timing",
        ]
        assert doc["gap_bound"] == pytest.approx(
            report.theta / doc["eta_final"], rel=1e-15
        )
        assert doc["timing"] is None

    def test_optional_fields(self):
        report = self.make_report()
        doc = report_to_dict(report, oracle_value=0.0, include_trace=True)
        assert doc["oracle_value"] == 0.0
        assert len(doc["trace"]) == len(report.trace)
        assert all(len(row) == 4 for row in doc["trace"])

    @pytest.mark.parametrize("oracle_value", [None, 0.0, float("nan")])
    @pytest.mark.parametrize("include_trace", [False, True])
    def test_emit_matches_indented_json(self, oracle_value, include_trace):
        report = self.make_report()
        odd = report.trace[0]._replace(decrement=float("inf"), objective=-float("inf"))
        for rows in (report.trace, (odd,) + report.trace[1:], ()):
            case = dataclasses.replace(report, trace=rows, value=-0.0)
            doc = report_to_dict(case, oracle_value=oracle_value, include_trace=include_trace)
            text = emit_report(case, oracle_value=oracle_value, include_trace=include_trace)
            assert text == json.dumps(doc, indent=2) + "\n"

    def test_emit_parses_back(self):
        report = self.make_report()
        doc = json.loads(emit_report(report, include_trace=True))
        assert doc["value"] == report.value
        assert doc["iterations"] == report.iterations
