import json
import pathlib
from fractions import Fraction

import pytest

import same_report
from weylpoly.cli import main
from weylpoly.errors import EnumerationCapError, UsageError
from weylpoly.exactpoly import poly_from_json
from weylpoly.report import ReportEntry, VerificationReport, timed_entry
from weylpoly import cli, verify
from weylpoly.verify import run_suite, suite_identities, suite_interlacing, suite_oracles, suite_stability


GOLDEN_ALL = pathlib.Path(__file__).parent / "data" / "verify_all.json"

# The suites whose checks have a rank n, by name.
RANKED_SUITES = {
    "oracles": suite_oracles,
    "identities": suite_identities,
    "interlacing": suite_interlacing,
    "stability": suite_stability,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_affine_type_D_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "tildeD", "--n", "3")
        assert code == 0
        assert out.strip() == "4x + 16x^2 + 4x^3"

    def test_coupled_family_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "Tq", "--n", "2")
        assert code == 0
        assert out.strip() == "(1 + q) + (1 + 2q + q^2)x + (q + q^2)x^2"

    def test_q_specialization(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "Dq", "--n", "3", "--q", "0")
        assert code == 0
        assert out.strip() == "1 + 4x + x^2"

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "Dq", "--n", "3", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["vars"] == ["x", "q"]
        poly_from_json(blob)

    def test_json_single_variable(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "tildeB", "--n", "3", "--format", "json")
        blob = json.loads(out)
        assert blob["var"] == "x"

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "nope", "--n", "3")
        assert code == 2 and "unknown family" in err

    def test_internal_error_without_a_message_names_its_type(self, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_compute", out_of_memory)
        code, out, err = run(capsys, "compute", "--family", "Dq", "--n", "120")
        assert code == 1 and out == ""
        assert err == "internal error: MemoryError\n"

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "tildeD", "--n", "1")
        assert code == 2

    def test_q_on_single_variable_family_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "tildeD", "--n", "3", "--q", "2")
        assert code == 2 and "no q parameter" in err

    def test_bad_q_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "Dq", "--n", "3", "--q", "x")
        assert code == 2


class TestVerify:
    def test_paper_tables_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "paper_tables")
        assert code == 0
        report = VerificationReport.loads(out)
        assert report.all_passed
        keys = [(e.check_id, json.dumps(e.parameters, sort_keys=True)) for e in report.entries]
        assert len(keys) == len(set(keys))
        assert "fail: 0" in err

    def test_suite_all_reproduces_the_golden_report(self, tmp_path, capsys):
        # tests/data/verify_all.json is `python -m weylpoly verify --suite all` with every
        # elapsed_ms dropped; a change that keeps the answers keeps this report
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        report = tmp_path / "report.json"
        report.write_text(out, encoding="utf-8")
        assert same_report.main(str(report), str(GOLDEN_ALL)) == 0

    def test_golden_comparison_ignores_only_elapsed_ms(self, tmp_path, capsys):
        # tests/same_report.py is the comparison every golden CI step runs
        with open(GOLDEN_ALL, encoding="utf-8") as handle:
            golden = json.load(handle)
        report = tmp_path / "report.json"
        for k, entry in enumerate(golden["entries"]):
            entry["elapsed_ms"] = k
        report.write_text(json.dumps(golden), encoding="utf-8")
        assert same_report.main(str(report), str(GOLDEN_ALL)) == 0
        golden["entries"][3]["verdict"] = "fail"
        report.write_text(json.dumps(golden), encoding="utf-8")
        assert same_report.main(str(report), str(GOLDEN_ALL)) == 1
        assert capsys.readouterr().err.count("\n") == 2
        golden["entries"].pop()
        report.write_text(json.dumps(golden), encoding="utf-8")
        assert same_report.main(str(report), str(GOLDEN_ALL)) == 1

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_oracle_rank_above_cap_raises(self):
        with pytest.raises(EnumerationCapError):
            suite_oracles(max_n=9)

    @pytest.mark.parametrize("via_flag", [True, False], ids=["flag", "api"])
    def test_identities_honour_cap(self, capsys, via_flag):
        if via_flag:
            code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "6", "--cap-override", "5")
            assert code == 0
            report = VerificationReport.loads(out)
        else:
            report = run_suite("identities", max_n=6, cap=5)
        verdicts = {
            (e.check_id, e.parameters["n"]): e.verdict
            for e in report.entries
            if e.check_id in ("stembridge", "q0_reduction")
        }
        assert verdicts[("stembridge", 5)] == verdicts[("q0_reduction", 5)] == "pass"
        assert verdicts[("stembridge", 6)] == verdicts[("q0_reduction", 6)] == "skipped"

    def test_identities_default_cap_keeps_ranks(self):
        run_ranks = {}
        for cid, params, thunk in suite_identities(max_n=10):
            if thunk is not None:
                run_ranks.setdefault(cid, []).append(params["n"])
        assert max(run_ranks["stembridge"]) == max(run_ranks["q0_reduction"]) == 8
        assert max(run_ranks["dilks_62"]) == 10

    def test_identities_skip_only_above_the_cap(self):
        # stembridge and q0_reduction are class counts: the cap alone decides, with no rank limit
        def skipped(cap):
            return {(cid, params["n"]) for cid, params, thunk in suite_identities(max_n=10, cap=cap) if thunk is None}

        assert skipped(None) == {(cid, n) for cid in ("stembridge", "q0_reduction") for n in (9, 10)}
        assert skipped(10) == set()

    def test_identities_suite_checks_and_skips(self):
        # every check in order; only the two identities that enumerate skip above the cap
        four = ("t_n0_equals_prev", "tilde_dual", "k_two_methods", "matrix_identity")
        expected = (
            [("dilks_62", n) for n in range(3, 7)]
            + [("stembridge", n) for n in range(3, 7)]
            + [(cid, n) for n in range(3, 7) for cid in four]
            + [(cid, n) for n in range(2, 7) for cid in ("q0_reduction", "oneplusq_division")]
            + [("interlace_chain_prop62", n) for n in range(3, 7)]
        )
        skipped = {(cid, n) for cid in ("stembridge", "q0_reduction") for n in (5, 6)}
        got = [(cid, params, thunk is None) for cid, params, thunk in suite_identities(max_n=6, cap=4)]
        assert got == [(cid, {"n": n}, (cid, n) in skipped) for cid, n in expected]

    def test_interlacing_suite_stays_at_or_below_max_n(self):
        # top = max(max_n, 4) ran nine rank-4 checks at max_n 3
        report = run_suite("interlacing", max_n=3)
        assert report.all_passed
        assert [(e.check_id, e.parameters["n"]) for e in report.entries] == [
            (cid, 3) for cid in ("coeff_shape_tildeD", "coeff_shape_tildeB", "fisk_recurrence_matrix")
        ]
        assert suite_interlacing(max_n=2) == []

    def test_interlacing_suite_checks_at_max_n_4(self):
        # at max_n 4 the ceiling changes nothing: every check, in order
        roots = [(cid, {"n": 4}) for cid in ("interlacing_T_at_1", "interlacing_K", "realrooted_tildeD")]
        at_q = [(cid, {"n": 4, "q": q}) for q in ("1/2", "2", "5") for cid in ("interlacing_T_at_q", "realrooted_Dq")]
        shape_ids = ("coeff_shape_tildeD", "coeff_shape_tildeB", "fisk_recurrence_matrix")
        shapes = [(cid, {"n": n}) for n in (3, 4) for cid in shape_ids]
        assert [(cid, params) for cid, params, _ in suite_interlacing(max_n=4)] == roots + at_q + shapes

    @pytest.mark.parametrize("k", range(2, 8))
    @pytest.mark.parametrize("suite", sorted(RANKED_SUITES))
    def test_a_lower_max_n_only_drops_the_ranks_above_it(self, suite, k):
        # one rank rule: each check keeps its first rank and its order, and max_n cuts the top
        def listed(max_n):
            return [(cid, params, thunk is None) for cid, params, thunk in RANKED_SUITES[suite](max_n=max_n)]

        assert listed(k) == [entry for entry in listed(8) if "n" not in entry[1] or entry[1]["n"] <= k]

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_report_keys_are_unique_and_q_follows_n(self, suite):
        # same_report.py compares parsed dicts, so only this test sees the parameter key order
        entries = run_suite(suite).entries
        keys = [(e.check_id, json.dumps(e.parameters, sort_keys=True)) for e in entries]
        assert len(keys) == len(set(keys))
        at_q = [list(e.parameters) for e in entries if "q" in e.parameters]
        assert at_q == [["n", "q"]] * len(at_q)
        assert bool(at_q) == (suite in ("interlacing", "stability", "all"))

    @pytest.mark.parametrize("suite", ["interlacing", "stability"])
    def test_a_repeated_q_sample_runs_once(self, suite):
        def entries(samples):
            return [(e.check_id, e.parameters, e.verdict) for e in run_suite(suite, max_n=4, q_samples=samples).entries]

        once = entries([Fraction(2)])
        assert entries([Fraction(2), Fraction(4, 2)]) == entries([2, 2]) == once
        assert entries([Fraction(5), Fraction(2), Fraction(5)]) == entries([Fraction(5), Fraction(2)])

    def test_a_repeated_q_sample_flag_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "stability", "--max-n", "4", "--q-samples", "2,4/2")
        assert code == 0
        qs = [e.parameters["q"] for e in VerificationReport.loads(out).entries if "q" in e.parameters]
        assert qs == ["2"]

    def test_small_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracles", "--max-n", "3")
        assert code == 0
        assert VerificationReport.loads(out).all_passed

    def test_q_samples_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "interlacing", "--max-n", "4", "--q-samples", "1/3,3"
        )
        assert code == 0
        report = VerificationReport.loads(out)
        qs = {e.parameters.get("q") for e in report.entries if "q" in e.parameters}
        assert qs == {"1/3", "3"}

    def test_unit_q_sample_adds_no_other_q(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "interlacing", "--max-n", "4", "--q-samples", "1")
        assert code == 0
        ids = {e.check_id for e in VerificationReport.loads(out).entries}
        assert "interlacing_T_at_1" in ids
        assert not ids & {"interlacing_T_at_q", "realrooted_Dq"}

    def test_bad_q_samples_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "interlacing", "--q-samples", "a,b")
        assert code == 2

    @pytest.mark.parametrize("suite", ["stability", "interlacing"])
    @pytest.mark.parametrize("samples, bad", [("0", "0"), ("-1", "-1"), ("1/2,0", "0"), ("2,-1/3", "-1/3")])
    def test_nonpositive_q_sample_exits_2_before_any_check(self, capsys, monkeypatch, suite, samples, bad):
        ran = []
        monkeypatch.setattr(verify, "timed_entry", lambda *args: ran.append(args))
        code, out, err = run(capsys, "verify", "--suite", suite, f"--q-samples={samples}")
        assert code == 2
        assert out == ""
        assert ran == []
        assert f"q sample {bad} is not positive" in err

    @pytest.mark.parametrize("max_n", ["1", "0", "-2"])
    @pytest.mark.parametrize("suite", ["oracles", "interlacing", "all"])
    def test_max_n_below_2_exits_2_before_any_check(self, capsys, monkeypatch, suite, max_n):
        ran = []
        monkeypatch.setattr(verify, "timed_entry", lambda *args: ran.append(args))
        code, out, err = run(capsys, "verify", "--suite", suite, f"--max-n={max_n}")
        assert code == 2
        assert out == ""
        assert ran == []
        assert f"max_n {max_n} is below" in err

    def test_malformed_cap_override_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--suite", "oracles", "--cap-override", "abc")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--cap-override: invalid int value: 'abc'" in captured.err

    def test_empty_q_samples_exits_2_before_any_check(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "timed_entry", lambda *args: ran.append(args))
        code, out, err = run(capsys, "verify", "--suite", "stability", "--q-samples", "")
        assert (code, out, ran) == (2, "", [])
        assert "bad q sample list ''" in err

    def test_empty_q_samples_raise_usage_error(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "timed_entry", lambda *args: ran.append(args))
        for samples in ((), []):
            with pytest.raises(UsageError, match="nonempty sequence of q values"):
                run_suite("stability", q_samples=samples)
        assert ran == []


class TestReport:
    def _sample_report(self):
        return VerificationReport(
            (
                ReportEntry("alpha", {"n": 2}, "pass", None, 1.0),
                ReportEntry("beta", {"n": 3}, "fail", {"detail": "injected"}, 2.0),
                ReportEntry("gamma", {"n": 9}, "skipped", None, 0.0),
            )
        )

    def test_json_roundtrip_bit_exact(self, tmp_path, capsys):
        report = self._sample_report()
        path = tmp_path / "report.json"
        path.write_text(report.dumps(), encoding="utf-8")
        code, out, _ = run(capsys, "report", str(path), "--format", "json")
        assert code == 0
        assert VerificationReport.loads(out) == report
        assert json.loads(out) == json.loads(report.dumps())

    def test_markdown_lists_failures_first(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(self._sample_report().dumps(), encoding="utf-8")
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| ")]
        assert rows[1].startswith("| fail | beta")
        assert "injected" in out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run(capsys, "report", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read report: ")

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"entries": 5},
            {"entries": [{"check_id": "alpha", "verdict": "pass", "witness": None, "elapsed_ms": 1.0}]},
            {"entries": [{"check_id": "beta", "parameters": {}, "verdict": "fail", "witness": None, "elapsed_ms": 1.0}]},
        ],
        ids=["top_level_list", "entries_not_a_list", "entry_without_parameters", "fail_without_witness"],
    )
    def test_wrong_structure_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "report", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read report: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "report", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read report: ")


class TestReportTypes:
    def test_fail_requires_witness(self):
        with pytest.raises(Exception):
            ReportEntry("x", {}, "fail", None, 0.0)

    def test_bad_verdict(self):
        with pytest.raises(Exception):
            ReportEntry("x", {}, "maybe", None, 0.0)

    def test_all_passed_ignores_skips(self):
        report = VerificationReport(
            (
                ReportEntry("a", {}, "pass", None, 0.0),
                ReportEntry("b", {}, "skipped", None, 0.0),
            )
        )
        assert report.all_passed

    def test_timed_entry_verdicts(self):
        passed = timed_entry("a", {"n": 2}, lambda: (True, {"note": "kept"}))
        assert passed.verdict == "pass" and passed.witness == {"note": "kept"}
        assert timed_entry("b", {}, None) == ReportEntry("b", {}, "skipped", None, 0.0)
        failed = timed_entry("c", {}, lambda: (False, None))
        assert failed.verdict == "fail" and failed.witness
